"""Golden bit-identity regression over the tiny-scale paper grid.

``tests/golden/grid_tiny.json`` snapshots the serialized ``RunResult``
of every (workload, protocol) cell of the paper grid at ``tiny`` scale,
captured before the coherence-kernel refactor.  These tests assert the
current code reproduces every cell bit-for-bit — traffic flit-hops,
waste taxonomies, per-bucket times, exec cycles, protocol stats, energy
counters and the event count.

``tools/gen_golden_grid.py`` simulates every cell on its own freshly
built workload, while these tests run a kernel's nine rungs on one
workload, where ``simulate()`` returns a lower rung's result for a rung
whose added flags never acted in that rung's run.  So the snapshot also
checks every reused result against an independent simulation, and the
same memoized grid pins which cells reuse.

The window conservation audit runs every cell through ``System`` on its
own (no rung reuse) and checks each waste level's window: its counts
against the words it received after warm-up.

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
from typing import Dict, List
from unittest import mock

import pytest

from repro.common.config import (
    PROTOCOL_ORDER, ScaleConfig, protocol, scaled_system)
from repro.core.simulator import reused_from, simulate
from repro.core.system import System
from repro.runner.store import result_to_dict
from repro.waste.profiler import PENDING
from repro.workloads import WORKLOAD_ORDER, build_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "grid_tiny.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["grid"]

SCALE = ScaleConfig.tiny()
CONFIG = scaled_system(SCALE)

#: Tiny-grid cells that copy a lower rung's result, and that rung: the
#: rungs whose added flags never acted in that rung's run.
REUSED = {
    ("fluidanimate", "DFlexL1"): "DeNovo",
    ("fluidanimate", "DFlexL2"): "DMemL1",
    ("fluidanimate", "DBypL2"): "DMemL1",
    ("LU", "DFlexL1"): "DeNovo",
    ("LU", "DValidateL2"): "DeNovo",
    ("LU", "DFlexL2"): "DMemL1",
    ("LU", "DBypL2"): "DMemL1",
    ("FFT", "DFlexL1"): "DeNovo",
    ("FFT", "DValidateL2"): "DeNovo",
    ("FFT", "DFlexL2"): "DMemL1",
    ("radix", "DFlexL1"): "DeNovo",
    ("radix", "DFlexL2"): "DMemL1",
    ("barnes", "DBypL2"): "DFlexL2",
    ("kD-tree", "DValidateL2"): "DeNovo",
}

# Each workload's cells are simulated once and shared by the bit-identity,
# event-count and reuse tests (simulation is deterministic, so this is
# pure memoization, not state leakage between tests).
_RESULTS: Dict[str, Dict[str, dict]] = {}
#: Per workload: each cell's ``reused_from`` and the rungs ``System.run``
#: simulated, in order.
_REUSED: Dict[str, Dict[str, str]] = {}
_RUNS: Dict[str, List[str]] = {}


def _grid_results(workload_name: str) -> Dict[str, dict]:
    cells = _RESULTS.get(workload_name)
    if cells is None:
        workload = build_workload(workload_name, SCALE)
        runs = _RUNS[workload_name] = []
        reused = _REUSED[workload_name] = {}
        run = System.run

        def counting_run(self, *args, **kwargs):
            runs.append(self.proto.name)
            return run(self, *args, **kwargs)

        cells = {}
        with mock.patch.object(System, "run", counting_run):
            for proto in PROTOCOL_ORDER:
                source = reused_from(workload, proto, CONFIG)
                if source is not None:
                    reused[proto] = source
                cells[proto] = result_to_dict(
                    simulate(workload, proto, CONFIG))
        _RESULTS[workload_name] = cells
    return cells


def test_tiny_grid_reuses_exactly_the_inert_rungs():
    """A cold tiny grid copies the 14 cells whose added flags never
    acted in a lower rung's run, and simulates the other 40."""
    reused = {}
    runs = 0
    for name in WORKLOAD_ORDER:
        _grid_results(name)
        reused.update({(name, proto): source
                       for proto, source in _REUSED[name].items()})
        assert set(_RUNS[name]) == set(PROTOCOL_ORDER) - set(_REUSED[name])
        runs += len(_RUNS[name])
    assert reused == REUSED
    assert runs == 54 - len(REUSED) == 40


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


#: Memory words counted in the window beyond the words it fetched: the
#: warm-up instances a load or a last drop settled after the mark
#: (ROADMAP item 2).  Every other cell counts exactly what it fetched.
#: The fidelity fix must change these pins on purpose.
CARRIED_WARMUP_INSTANCES = {
    ("fluidanimate", "MESI"): 183, ("fluidanimate", "MMemL1"): 196,
    ("fluidanimate", "DeNovo"): 24, ("fluidanimate", "DFlexL1"): 24,
    ("radix", "DeNovo"): 10, ("radix", "DFlexL1"): 10,
    ("kD-tree", "DBypL2"): 120, ("kD-tree", "DBypFull"): 120,
}


@pytest.mark.parametrize("workload_name", WORKLOAD_ORDER)
def test_window_conservation(workload_name):
    """In every cell, each cache level gives every window word a verdict
    and counts exactly its window words; the memory level over-counts
    by the pinned carried instances."""
    workload = build_workload(workload_name, SCALE)
    for proto in PROTOCOL_ORDER:
        system = System(workload, protocol(proto), CONFIG)
        result = system.run()
        cell = f"{workload_name} x {proto}"
        assert result_to_dict(result) == GOLDEN[workload_name][proto], cell
        ctx = system.ctx
        for prof, pool in ((ctx.l1_prof, ctx.pools.l1_cat),
                           (ctx.l2_prof, ctx.pools.l2_cat)):
            window_start = len(pool) - prof.total_words()
            assert pool.count(PENDING, window_start) == 0, cell
            assert sum(prof.counts().values()) == prof.total_words(), cell
        mem = ctx.mem_prof
        assert (sum(mem.counts().values()) - mem.total_words()
                == CARRIED_WARMUP_INSTANCES.get((workload_name, proto), 0)
                ), cell
