"""Ablation — Bloom filter geometry vs request-bypass effectiveness.

The paper sizes its filters "idealized" (Sections 3.1 and 5.2.1); this
ablation sweeps the geometry on radix and checks the expected monotone
trend (bigger filters -> fewer false positives -> at least as many
direct-to-memory requests) behind the storage/benefit trade-off those
sections discuss.
"""

from dataclasses import replace

import pytest

from repro.common.config import ScaleConfig, protocol, scaled_system
from repro.core.simulator import simulate
from repro.workloads import build_workload


SCALE = ScaleConfig.tiny()
GEOMETRIES = ((32, 2), (128, 2), (512, 8))   # (entries, filters/slice)


@pytest.fixture(scope="module")
def sweep():
    base = scaled_system(SCALE)
    workload = build_workload("radix", SCALE)
    out = {}
    for entries, filters in GEOMETRIES:
        config = replace(base, bloom_entries=entries,
                         bloom_filters_per_slice=filters)
        out[(entries, filters)] = simulate(workload, protocol("DBypFull"),
                                           config)
    return out


def test_bloom_geometry_sweep(sweep):
    # Direct-request rate is monotone non-decreasing in filter size.
    rates = []
    for geometry in GEOMETRIES:
        stats = sweep[geometry].protocol_stats
        rates.append(stats.get("direct_requests", 0)
                     / max(stats.get("bypass_queries", 0), 1))
    assert rates == sorted(rates), rates

    # Even the smallest geometry keeps the protocol functional.
    assert all(r.exec_cycles > 0 for r in sweep.values())
