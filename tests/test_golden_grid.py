"""Golden bit-identity regression over the tiny-scale paper grid.

``tests/golden/grid_tiny.json`` snapshots the serialized ``RunResult``
of every (workload, protocol) cell of the paper grid at ``tiny`` scale,
captured before the coherence-kernel refactor.  These tests assert the
current code reproduces every cell bit-for-bit — traffic flit-hops,
waste taxonomies, per-bucket times, exec cycles, protocol stats, energy
counters and the event count.

The per-cell event count additionally gets its own dedicated assertion:
the hot-path engine rework (closure-free ``schedule_call``, same-cycle
batch draining) must provably schedule the *identical event stream*,
and an event-count diff localizes an engine regression faster than the
full-dict comparison does.

If a change is *supposed* to alter simulation results, regenerate the
snapshot with ``PYTHONPATH=src python tools/gen_golden_grid.py`` and
explain why in the commit message.
"""

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.common.config import PROTOCOL_ORDER, ScaleConfig, scaled_system
from repro.core.simulator import simulate
from repro.runner.store import result_to_dict
from repro.workloads import WORKLOAD_ORDER, build_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "grid_tiny.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["grid"]

SCALE = ScaleConfig.tiny()
CONFIG = scaled_system(SCALE)

# Each workload's cells are simulated once and shared by the bit-identity
# and event-count tests (simulation is deterministic, so this is pure
# memoization, not state leakage between tests).
_RESULTS: Dict[str, Dict[str, dict]] = {}


def _grid_results(workload_name: str) -> Dict[str, dict]:
    cells = _RESULTS.get(workload_name)
    if cells is None:
        workload = build_workload(workload_name, SCALE)
        cells = _RESULTS[workload_name] = {
            proto: result_to_dict(simulate(workload, proto, CONFIG))
            for proto in PROTOCOL_ORDER}
    return cells


def test_golden_covers_the_full_paper_grid():
    assert set(GOLDEN) == set(WORKLOAD_ORDER)
    for workload, cells in GOLDEN.items():
        assert set(cells) == set(PROTOCOL_ORDER), workload


@pytest.mark.parametrize("workload_name", WORKLOAD_ORDER)
def test_grid_cells_bit_identical_to_golden(workload_name):
    for proto in PROTOCOL_ORDER:
        result = _grid_results(workload_name)[proto]
        expected = GOLDEN[workload_name][proto]
        assert result == expected, (
            f"{workload_name} x {proto} diverged from the golden result; "
            f"if intentional, regenerate tests/golden/grid_tiny.json with "
            f"tools/gen_golden_grid.py")


@pytest.mark.parametrize("workload_name", WORKLOAD_ORDER)
def test_grid_cell_event_counts_pinned(workload_name):
    """The engine must schedule the identical event stream per cell."""
    for proto in PROTOCOL_ORDER:
        events = _grid_results(workload_name)[proto]["events"]
        expected = GOLDEN[workload_name][proto]["events"]
        assert events == expected, (
            f"{workload_name} x {proto}: {events} events run, golden "
            f"pinned {expected} — the scheduler is not executing the "
            f"same event stream")
