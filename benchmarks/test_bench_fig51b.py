"""F5.1b — load traffic breakdown (req/resp control, L1/L2 used/waste)."""

from repro.analysis.figures import figure_5_1b
from repro.workloads import WORKLOAD_ORDER


def test_figure_5_1b(grid):
    fig = figure_5_1b(grid)

    # Flex cuts load traffic for barnes and kD-tree (paper: -32.4% /
    # -43.5% vs DeNovo for DFlexL1/DFlexL2).
    for workload in ("barnes", "kD-tree"):
        assert (fig.bar_total(workload, "DFlexL1")
                < fig.bar_total(workload, "DeNovo")), workload

    # L2 Response Bypass cuts load traffic for the bypass apps
    # (paper: average -28.8% vs DFlexL2).
    for workload in ("fluidanimate", "FFT", "radix", "kD-tree"):
        assert (fig.bar_total(workload, "DBypL2")
                < fig.bar_total(workload, "DFlexL2")), workload

    # L2 Request Bypass trims request control further for bypass apps
    # (paper: average -5.2% of load traffic vs DBypL2).
    for workload in ("fluidanimate", "FFT", "radix", "kD-tree"):
        assert (fig.segment(workload, "DBypFull", "Req Ctl")
                <= fig.segment(workload, "DBypL2", "Req Ctl")), workload

    # Bypassed responses skip the L2, so DBypL2 moves almost no
    # load data into the L2 for the streaming apps.
    for workload in ("FFT", "radix"):
        l2_data = (fig.segment(workload, "DBypL2", "Resp L2 Used")
                   + fig.segment(workload, "DBypL2", "Resp L2 Waste"))
        mesi_l2 = (fig.segment(workload, "MESI", "Resp L2 Used")
                   + fig.segment(workload, "MESI", "Resp L2 Waste"))
        assert l2_data < mesi_l2 * 0.5, workload
