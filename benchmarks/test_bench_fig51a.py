"""F5.1a — overall network traffic, all protocols x all workloads.

Shape expectations from the paper (Section 5.1): every optimized DeNovo
protocol beats MESI; MMemL1 is a modest improvement; the fully optimized
DBypFull cuts every workload's traffic a lot (its average is a banded
claim in ``repro.analysis.report.CLAIMS``).
"""

from repro.analysis.figures import figure_5_1a
from repro.common.config import PROTOCOL_ORDER
from repro.workloads import WORKLOAD_ORDER


def test_figure_5_1a(grid):
    fig = figure_5_1a(grid)

    # MESI bars are the 100% baseline.
    import pytest
    for workload in WORKLOAD_ORDER:
        assert fig.bar_total(workload, "MESI") == pytest.approx(100.0)

    # Every workload: the fully optimized protocol cuts traffic a lot.
    for workload in WORKLOAD_ORDER:
        assert fig.bar_total(workload, "DBypFull") < 85.0, workload

    # MMemL1 never increases traffic.
    for workload in WORKLOAD_ORDER:
        assert fig.bar_total(workload, "MMemL1") <= 100.5, workload

    # Baseline DeNovo already removes MESI overhead + false sharing.
    for workload in WORKLOAD_ORDER:
        assert (fig.bar_total(workload, "DeNovo")
                < fig.bar_total(workload, "MESI")), workload

    # Flex helps only barnes and kD-tree (Section 5.2.1).
    for workload in ("barnes", "kD-tree"):
        assert (fig.bar_total(workload, "DFlexL1")
                < fig.bar_total(workload, "DeNovo") - 0.5), workload
    for workload in ("fluidanimate", "LU", "FFT", "radix"):
        assert abs(fig.bar_total(workload, "DFlexL1")
                   - fig.bar_total(workload, "DeNovo")) < 2.0, workload

    # L2-response bypass helps the four bypass apps (Section 5.2.1).
    for workload in ("fluidanimate", "FFT", "radix", "kD-tree"):
        assert (fig.bar_total(workload, "DBypL2")
                < fig.bar_total(workload, "DFlexL2")), workload
