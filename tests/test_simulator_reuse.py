"""Result reuse across rungs in :func:`repro.core.simulator.simulate`.

Each protocol core records which of its rung's flags acted in a run: at
some read of the flag, its other value would have taken the other
branch.  A later rung of the same kind on the same machine that differs
from a simulated one only in flags that never acted in that run runs
event for event like it, so ``simulate()`` returns a copy of its
result.  These tests check that a copy equals a fresh simulation, every
case that must still simulate, and that every flag is witnessed.
``tests/test_golden_grid.py`` pins which tiny-grid cells reuse and
checks their values against a snapshot that simulates every cell.
"""

import dataclasses
import itertools
from dataclasses import fields

import pytest

import repro.core.simulator as simulator
from repro.coherence import DenovoSystem, MesiSystem
from repro.common.config import (
    PROTOCOL_FLAGS, PROTOCOL_ORDER, ProtocolConfig, ScaleConfig, protocol)
from repro.common.regions import FlexPattern, Region
from repro.core.system import System
from repro.obs import ObsSession
from repro.runner.jobs import expand_grid
from repro.runner.pool import run_jobs
from repro.runner.store import result_to_dict
from repro.workloads import RegionUpdate
from repro.workloads.trace import OP_BARRIER, OP_LOAD, OP_STORE

from tests.conftest import TINY_SYSTEM, make_region_table, micro_workload


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
    assert [stored.result.protocol
            for stored in workload.results.values()] == ["DeNovo"]
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
    assert marks == {"DFlexL1": "= DeNovo", "DValidateL2": "= DeNovo",
                     "DFlexL2": "= DMemL1", "DBypL2": "= DMemL1"}
    assert outcomes[0].status().endswith("s")


def test_untouched_flex_region_still_reuses(runs):
    """A Flex pattern on a region no load reaches never acts: DFlexL1
    copies DeNovo, and the copy equals a fresh simulation."""
    regions = make_region_table(
        Region(region_id=0, name="data", base_word=0, size_words=4096),
        Region(region_id=1, name="cold", base_word=4096, size_words=4096,
               flex=FlexPattern(4, (0, 1))))
    workload = micro_workload(_plain_ops(), regions=regions)
    simulator.simulate(workload, "DeNovo", TINY_SYSTEM)
    copied = simulator.simulate(workload, "DFlexL1", TINY_SYSTEM)
    assert runs == ["DeNovo"]
    fresh = System(workload, protocol("DFlexL1"), TINY_SYSTEM).run()
    assert result_to_dict(copied) == result_to_dict(fresh)


@pytest.mark.parametrize("kind, core_cls", [("mesi", MesiSystem),
                                            ("denovo", DenovoSystem)])
def test_every_flag_a_rung_can_set_is_witnessed(kind, core_cls):
    """Reuse trusts a core's record of acted flags, so every flag some
    rung of the kind can turn on must be witnessed by its core or
    always count as acted.  A new flag read without a witness fails
    here instead of letting ``simulate()`` copy across it."""
    assert PROTOCOL_FLAGS == tuple(
        f.name for f in fields(ProtocolConfig)
        if isinstance(f.default, bool))
    settable = set()
    for values in itertools.product((False, True),
                                    repeat=len(PROTOCOL_FLAGS)):
        flags = dict(zip(PROTOCOL_FLAGS, values))
        try:
            ProtocolConfig(name="probe", kind=kind, **flags)
        except ValueError:
            continue
        settable.update(flag for flag, on in flags.items() if on)
    covered = core_cls.WITNESSED | core_cls.ALWAYS_ACTING
    assert settable - covered == set()
    assert covered <= settable
