"""F5.3c — words fetched from memory, by waste category (plus Excess).

Paper shapes (Section 5.3): DValidateL2 fetches ~19% fewer words than
MESI; the L2-Flex protocols *increase* memory words for barnes and
kD-tree because the controller reads whole lines and drops non-region
words (Excess waste — 60.3% / 66.1% of those apps' memory traffic in
the paper).
"""

from repro.analysis.figures import figure_5_3c
from repro.waste.profiler import Category
from repro.workloads import WORKLOAD_ORDER


def test_figure_5_3c(grid):
    fig = figure_5_3c(grid)

    # Only the L2-Flex protocols produce Excess waste, and only for the
    # Flex apps (barnes, kD-tree).
    for workload in WORKLOAD_ORDER:
        for proto in ("MESI", "MMemL1", "DeNovo", "DFlexL1",
                      "DValidateL2", "DMemL1"):
            assert fig.segment(workload, proto, "Excess Waste") == 0.0, (
                workload, proto)
    # kD-tree demonstrates the effect strongly (paper: 66.1% of its
    # memory traffic).  At this scale barnes fits the L2 after warm-up
    # and generates no measured memory traffic at all, so its Excess is
    # structurally zero.
    assert fig.segment("kD-tree", "DFlexL2", "Excess Waste") > 5.0
    for workload in ("fluidanimate", "LU", "FFT", "radix"):
        assert fig.segment(workload, "DFlexL2", "Excess Waste") == 0.0, (
            workload)

    # Excess inflates the Flex apps' memory-word bars above the
    # Flex-free protocol (paper: barnes/kD-tree memory traffic rises).
    assert (fig.bar_total("kD-tree", "DFlexL2")
            > fig.bar_total("kD-tree", "DMemL1"))

    # Write-validate cuts memory fetches (paper: DValidateL2 -18.9% avg).
    totals_dv = [fig.bar_total(w, "DValidateL2") for w in WORKLOAD_ORDER]
    avg_dv = sum(totals_dv) / len(totals_dv)
    assert avg_dv < 95.0, f"DValidateL2 average memory words {avg_dv:.1f}%"
