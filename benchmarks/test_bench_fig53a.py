"""F5.3a — words fetched into the L1, by waste category.

Paper shape (Section 5.3): DBypFull brings ~40% fewer words into the L1
than MESI on average; the residual waste is irregular-access-pattern
Evict/Fetch waste that cannot be removed without hurting performance.
"""

from repro.analysis.figures import figure_5_3a
from repro.workloads import WORKLOAD_ORDER


def test_figure_5_3a(grid):
    fig = figure_5_3a(grid)

    # Average L1 word reduction for the full stack (paper: 39.8%).
    totals = [fig.bar_total(w, "DBypFull") for w in WORKLOAD_ORDER]
    avg = sum(totals) / len(totals)
    assert avg < 90.0, f"DBypFull average L1 words {avg:.1f}% of MESI"

    # Used words cannot exceed the bar; every protocol keeps a
    # meaningful used fraction.
    for workload in WORKLOAD_ORDER:
        for proto in grid[workload]:
            used = fig.segment(workload, proto, "Used Words")
            assert 0.0 <= used <= fig.bar_total(workload, proto) + 1e-9

    # Write-validate removes the write-waste component at the L1 for
    # DeNovo (stores never fetch).
    for workload in ("FFT", "radix", "fluidanimate"):
        assert (fig.segment(workload, "DValidateL2", "Write Waste")
                < fig.segment(workload, "MESI", "Write Waste")), workload

    # MESI's fetch-on-write makes Write waste visible for the
    # overwrite-heavy apps (Section 5.2.2).
    for workload in ("FFT", "radix", "fluidanimate"):
        assert fig.segment(workload, "MESI", "Write Waste") > 1.0, workload
