"""Result reuse across rungs in :func:`repro.core.simulator.simulate`.

A rung whose added optimisation the workload never exercises (Flex
without a Flex pattern, L2 response bypass without a ``bypass_l2``
region) runs event for event like a lower rung, so ``simulate()``
returns a copy of that rung's result.  These tests pin which cells
reuse, that a copy equals a fresh simulation, and every case that must
still simulate.  The reused cells' values are also checked by
``tests/test_golden_grid.py``, whose snapshot simulates every cell.
"""

import dataclasses

import pytest

import repro.core.simulator as simulator
from repro.common.config import PROTOCOL_ORDER, ScaleConfig, scaled_system
from repro.common.regions import FlexPattern, Region
from repro.core.stats import RunResult
from repro.core.system import System
from repro.obs import ObsSession
from repro.runner.jobs import expand_grid
from repro.runner.pool import run_jobs
from repro.runner.store import result_to_dict
from repro.workloads import WORKLOAD_ORDER, RegionUpdate, build_workload
from repro.workloads.trace import OP_BARRIER, OP_LOAD, OP_STORE

from tests.conftest import TINY_SYSTEM, make_region_table, micro_workload

#: Tiny-grid cells that reuse a lower rung's result, and that rung.
REUSED = {
    ("fluidanimate", "DFlexL1"): "DeNovo",
    ("fluidanimate", "DFlexL2"): "DMemL1",
    ("LU", "DFlexL1"): "DeNovo",
    ("LU", "DFlexL2"): "DMemL1",
    ("LU", "DBypL2"): "DMemL1",
    ("FFT", "DFlexL1"): "DeNovo",
    ("FFT", "DFlexL2"): "DMemL1",
    ("radix", "DFlexL1"): "DeNovo",
    ("radix", "DFlexL2"): "DMemL1",
    ("barnes", "DBypL2"): "DFlexL2",
}


@pytest.fixture
def runs(monkeypatch):
    """Rung names of every ``System.run`` call, in order."""
    calls = []
    run = System.run

    def counting_run(self, *args, **kwargs):
        calls.append(self.proto.name)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(System, "run", counting_run)
    return calls


class _StubSystem:
    """Stands in for ``System`` where only the reuse decision matters:
    reuse reads the workload's annotations, never a simulated value."""

    built = []

    def __init__(self, workload, proto, config, obs=None):
        self.workload, self.proto = workload, proto

    def run(self):
        self.built.append((self.workload.name, self.proto.name))
        return RunResult(workload=self.workload.name,
                         protocol=self.proto.name, traffic={},
                         l1_waste={}, l2_waste={}, mem_waste={}, time={},
                         exec_cycles=0, events=0)


def test_tiny_grid_reuses_exactly_the_annotation_free_rungs(monkeypatch):
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    monkeypatch.setattr(simulator, "System", _StubSystem)
    monkeypatch.setattr(_StubSystem, "built", [])
    reused = {}
    for name in WORKLOAD_ORDER:
        workload = build_workload(name, scale)
        for proto in PROTOCOL_ORDER:
            source = simulator.reused_from(workload, proto, config)
            result = simulator.simulate(workload, proto, config)
            assert result.protocol == proto
            if source is not None:
                reused[(name, proto)] = source
    assert reused == REUSED
    simulated = {(w, p) for w in WORKLOAD_ORDER for p in PROTOCOL_ORDER}
    assert set(_StubSystem.built) == simulated - set(REUSED)
    assert len(_StubSystem.built) == 54 - 10


def _plain_ops():
    """Four cores sharing lines across two phases."""
    return {core: [(OP_LOAD, 16 * core), (OP_STORE, 16 * core + 1),
                   (OP_BARRIER, 0), (OP_LOAD, 16 * ((core + 1) % 4)),
                   (OP_BARRIER, 0)]
            for core in range(4)}


def test_reused_copy_equals_a_fresh_simulation(runs):
    workload = micro_workload(_plain_ops())
    base = simulator.simulate(workload, "DeNovo", TINY_SYSTEM)
    copied = simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DeNovo"]
    fresh = simulator.simulate(dataclasses.replace(workload), "DFlexL1",
                               TINY_SYSTEM)
    assert runs == ["DeNovo", "DFlexL1"]
    assert copied.protocol == "DFlexL1" and base.protocol == "DeNovo"
    assert result_to_dict(copied) == result_to_dict(fresh)
    # Results share no dicts: emptying the two already handed out
    # leaves the stored one intact for the next copy.
    for handed_out in (base, copied):
        for bucket in handed_out.traffic.values():
            bucket.clear()
        handed_out.energy_counters.clear()
    again = simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DeNovo", "DFlexL1"]
    assert result_to_dict(again) == result_to_dict(fresh)


def test_same_rung_twice_simulates_twice(runs):
    workload = micro_workload(_plain_ops())
    simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert simulator.reused_from(workload, "DFlexL1", TINY_SYSTEM) is None
    simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DFlexL1", "DFlexL1"]


def test_observed_run_stores_its_result_and_always_simulates(runs):
    """An observed run leaves its result for later unobserved rungs,
    but never takes a stored one: its observation needs the run."""
    workload = micro_workload(_plain_ops())
    simulator.simulate(workload, "DeNovo", TINY_SYSTEM, obs=ObsSession())
    assert [r.protocol for r in workload.results.values()] == ["DeNovo"]
    assert simulator.reused_from(workload, "DFlexL1", TINY_SYSTEM) == "DeNovo"
    copied = simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DeNovo"]
    simulator.simulate(workload, "DeNovo", TINY_SYSTEM, obs=ObsSession())
    assert runs == ["DeNovo", "DeNovo"]
    fresh = simulator.simulate(dataclasses.replace(workload), "DFlexL1",
                               TINY_SYSTEM)
    assert copied.protocol == "DFlexL1"
    assert result_to_dict(copied) == result_to_dict(fresh)


def test_flex_pattern_from_a_phase_update_counts(runs):
    """Flex arrives only at the first barrier: DFlexL1 must simulate."""
    workload = dataclasses.replace(
        micro_workload(_plain_ops()), phase_region_updates={
            0: [RegionUpdate(0, flex=FlexPattern(4, (0, 1)))]})
    assert all(region.flex is None for region in workload.regions)
    simulator.simulate(workload, "DeNovo", TINY_SYSTEM)
    simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DeNovo", "DFlexL1"]


def test_request_bypass_never_merges_with_response_bypass(runs):
    """No bypass region: DBypL2 reuses DFlexL2, but DBypFull builds
    Bloom banks and must simulate."""
    workload = micro_workload(_plain_ops())
    for proto in ("DFlexL2", "DBypL2", "DBypFull"):
        simulator.simulate(workload, proto, TINY_SYSTEM)
    assert runs == ["DFlexL2", "DBypFull"]


def test_bypass_region_keeps_response_bypass(runs):
    workload = micro_workload(_plain_ops(), regions=make_region_table(
        Region(region_id=0, name="data", base_word=0, size_words=4096,
               bypass_l2=True)))
    simulator.simulate(workload, "DFlexL2", TINY_SYSTEM)
    simulator.simulate(workload, "DBypL2", TINY_SYSTEM)
    assert runs == ["DFlexL2", "DBypL2"]


def test_replaced_workload_starts_empty_and_fields_are_frozen():
    workload = micro_workload(_plain_ops())
    simulator.simulate(workload, "DeNovo", TINY_SYSTEM)
    assert len(workload.results) == 1
    assert dataclasses.replace(workload).results == {}
    assert isinstance(workload.traces, tuple)
    for trace in workload.traces:
        with pytest.raises(TypeError):
            trace[0] = (OP_STORE, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        workload.warmup_barriers = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        workload.traces = ()


def test_sweep_marks_reused_cells():
    outcomes = run_jobs(expand_grid(["LU"], PROTOCOL_ORDER,
                                    ScaleConfig.tiny()))
    marks = {o.spec.protocol: o.status() for o in outcomes
             if o.reused_from is not None}
    assert marks == {"DFlexL1": "= DeNovo", "DFlexL2": "= DMemL1",
                     "DBypL2": "= DMemL1"}
    assert outcomes[0].status().endswith("s")
