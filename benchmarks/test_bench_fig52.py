"""F5.2 — execution time breakdown (Compute / On-chip / To MC / Mem /
From MC / Sync), normalized to MESI.

Paper shapes (Section 5.1): MMemL1 is a bit faster than MESI and the
fully optimized DeNovo (DBypFull) is faster than MESI on average (both
averages are banded claims in ``repro.analysis.report.CLAIMS``); no
protocol catastrophically regresses.
"""

from repro.analysis.figures import figure_5_2
from repro.workloads import WORKLOAD_ORDER


def test_figure_5_2(grid):
    fig = figure_5_2(grid)

    # Every bar decomposes into the six paper categories.
    for workload in WORKLOAD_ORDER:
        for proto in grid[workload]:
            segs = fig.rows[workload][proto]
            assert set(segs) == {"Compute", "On-chip Hit", "To MC", "Mem",
                                 "From MC", "Sync"}

    # Memory-bound apps show substantial memory-side stall under MESI.
    for workload in ("radix", "FFT"):
        mem_side = (fig.segment(workload, "MESI", "Mem")
                    + fig.segment(workload, "MESI", "To MC")
                    + fig.segment(workload, "MESI", "From MC"))
        assert mem_side > 10.0, workload
