"""F5.1d — writeback traffic breakdown.

Paper shapes (Section 5.2.3): dirty-words-only L1->L2 writebacks
(all DeNovo protocols) eliminate "L2 Waste"; dirty-words-only L2->memory
writebacks (DValidateL2 onward) eliminate "Mem Waste"; MMemL1 barely
changes writeback traffic.
"""

import pytest

from repro.analysis.figures import figure_5_1d
from repro.workloads import WORKLOAD_ORDER


DIRTY_ONLY_L2 = ("DeNovo", "DFlexL1", "DValidateL2", "DMemL1", "DFlexL2",
                 "DBypL2", "DBypFull")
DIRTY_ONLY_MEM = ("DValidateL2", "DMemL1", "DFlexL2", "DBypL2", "DBypFull")


def test_figure_5_1d(grid):
    fig = figure_5_1d(grid)

    for workload in WORKLOAD_ORDER:
        # Dirty-words-only L1->L2: no clean words in writebacks.
        for proto in DIRTY_ONLY_L2:
            assert fig.segment(workload, proto, "L2 Waste") == 0.0, (
                workload, proto)
        # Dirty-words-only L2->mem.
        for proto in DIRTY_ONLY_MEM:
            assert fig.segment(workload, proto, "Mem Waste") == 0.0, (
                workload, proto)

    # MESI ships whole lines: apps with partial-line dirtiness show
    # waste in their writebacks somewhere.
    wasteful = sum(
        1 for w in WORKLOAD_ORDER
        if fig.segment(w, "MESI", "L2 Waste")
        + fig.segment(w, "MESI", "Mem Waste") > 0)
    assert wasteful >= 4

    # MMemL1 does not reduce the number of writebacks (Section 5.2.3):
    # its WB bar stays close to MESI's.
    for workload in WORKLOAD_ORDER:
        assert fig.bar_total(workload, "MMemL1") == pytest.approx(
            fig.bar_total(workload, "MESI"), rel=0.25), workload
