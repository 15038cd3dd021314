"""F5.3b — words fetched into the L2 from memory, by waste category.

Paper shape (Section 5.3): DBypFull cuts data brought into the L2 by
~64% vs DeNovo and ~65% vs MESI, mostly thanks to the L2 response
bypass keeping streaming data out of the L2.
"""

from repro.analysis.figures import figure_5_3b
from repro.workloads import WORKLOAD_ORDER


BYPASS_APPS = ("fluidanimate", "FFT", "radix", "kD-tree")


def test_figure_5_3b(grid):
    fig = figure_5_3b(grid)

    # Bypass apps: DBypL2 moves far less data into the L2 than MESI.
    for workload in BYPASS_APPS:
        assert (fig.bar_total(workload, "DBypL2")
                < 0.6 * fig.bar_total(workload, "MESI")), workload

    # And less than the same protocol without bypass.
    for workload in BYPASS_APPS:
        assert (fig.bar_total(workload, "DBypL2")
                < fig.bar_total(workload, "DFlexL2")), workload

    # The L2 write-validate protocols stop fetching lines for writes,
    # so they never bring more into the L2 than baseline DeNovo.
    for workload in WORKLOAD_ORDER:
        assert (fig.bar_total(workload, "DValidateL2")
                <= fig.bar_total(workload, "DeNovo") + 1.0), workload
