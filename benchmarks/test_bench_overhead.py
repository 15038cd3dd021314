"""H3 — protocol overhead traffic (paper Section 5.2.4).

Paper: overhead is a sizeable share of MESI's and MMemL1's traffic (the
MESI share is a banded claim in ``repro.analysis.report.CLAIMS``); within
MESI's overhead, ~65.3% is directory unblock messages, ~26.1% writeback
control, ~4.4% invalidations, ~4.3% acks.  DeNovo's overhead is
negligible (NACKs only); DBypFull adds ~0.5% Bloom-copy traffic for the
bypass apps.
"""

from repro.analysis.experiments import average_overhead_fraction
from repro.network import traffic as T
from repro.workloads import WORKLOAD_ORDER


BYPASS_APPS = ("fluidanimate", "FFT", "radix", "kD-tree")


def test_overhead_traffic(grid):
    mesi = average_overhead_fraction(grid, "MESI")
    mmem = average_overhead_fraction(grid, "MMemL1")
    assert mmem < mesi, "MMemL1 must shrink overhead (unblock+data)"

    denovo = average_overhead_fraction(grid, "DeNovo")
    assert denovo < 0.03, f"DeNovo overhead {denovo:.1%}"

    # Unblock dominates MESI overhead.
    subtotal = {k: 0.0 for k in T.OVH_BUCKETS}
    for workload in WORKLOAD_ORDER:
        for key in T.OVH_BUCKETS:
            subtotal[key] += grid[workload]["MESI"].traffic_bucket(T.OVH,
                                                                   key)
    assert subtotal[T.OVH_UNBLOCK] == max(subtotal.values())
    assert subtotal[T.OVH_BLOOM] == 0.0

    # Bloom traffic exists only for DBypFull, only for bypass apps, and
    # stays a small share of that protocol's traffic.
    for workload in BYPASS_APPS:
        result = grid[workload]["DBypFull"]
        bloom = result.traffic_bucket(T.OVH, T.OVH_BLOOM)
        assert bloom > 0.0, workload
        assert bloom / result.traffic_total() < 0.10, workload
    for workload in ("LU", "barnes"):
        assert grid[workload]["DBypFull"].traffic_bucket(
            T.OVH, T.OVH_BLOOM) == 0.0, workload
