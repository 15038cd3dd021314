"""Ablation — write-combining table size vs radix store-control traffic.

Paper Section 5.2.2: radix's permutation writes to 1024 lines, far more
than the 32-entry write-combining table, so DeNovo issues multiple
registration messages per line.  Growing the table recovers the
batching; shrinking it makes the blowup worse.
"""

from dataclasses import replace

import pytest

from repro.common.config import ScaleConfig, protocol, scaled_system
from repro.core.simulator import simulate
from repro.workloads import build_workload


SCALE = ScaleConfig.tiny()
TABLE_SIZES = (8, 32, 256)


@pytest.fixture(scope="module")
def sweep():
    base = scaled_system(SCALE)
    workload = build_workload("radix", SCALE)
    out = {}
    for size in TABLE_SIZES:
        config = replace(base, write_combine_entries=size)
        out[size] = simulate(workload, protocol("DeNovo"), config)
    return out


def test_write_combine_sweep(sweep):
    # More table entries -> fewer registration messages (monotone).
    regs = [sweep[size].protocol_stats.get("registrations", 0)
            for size in TABLE_SIZES]
    assert regs[0] >= regs[1] >= regs[2], regs
    # The paper's blowup: a small table sends measurably more messages.
    assert regs[0] > regs[2]
