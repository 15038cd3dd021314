"""Property-based end-to-end tests: random micro-workloads, invariants.

Hypothesis generates small random multi-core traces; every protocol must
complete them and satisfy the accounting invariants regardless of the
interleaving of loads, stores and barriers.  With random region
annotations and phase updates added, every result ``simulate()`` copies
from another rung must equal a direct simulation.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.common.config import PROTOCOLS, protocol
from repro.common.regions import FlexPattern, Region
from repro.core import simulator
from repro.core.system import System
from repro.network import traffic as T
from repro.runner.store import result_to_dict
from repro.waste.profiler import Category
from repro.workloads import RegionUpdate
from repro.workloads.trace import OP_BARRIER, OP_COMPUTE, OP_LOAD, OP_STORE

from tests.conftest import TINY_SYSTEM, make_region_table, micro_workload

# Addresses spread over 64 lines so evictions and sharing both occur in
# the tiny 1KB L1s.
addr = st.integers(min_value=0, max_value=1023)

op = st.one_of(
    st.tuples(st.just(OP_LOAD), addr),
    st.tuples(st.just(OP_STORE), addr),
    st.tuples(st.just(OP_COMPUTE), st.integers(min_value=1, max_value=20)),
)

core_trace = st.lists(op, min_size=0, max_size=40)

workload_ops = st.dictionaries(
    st.integers(min_value=0, max_value=15), core_trace,
    min_size=1, max_size=4)

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run(per_core_ops, proto):
    w = micro_workload(per_core_ops)
    return System(w, protocol(proto), TINY_SYSTEM).run()


class TestRandomWorkloads:
    @SETTINGS
    @given(workload_ops, st.sampled_from(["MESI", "MMemL1", "DeNovo",
                                          "DValidateL2", "DBypFull"]))
    def test_completes_with_consistent_accounting(self, ops, proto):
        result = run(ops, proto)
        # Simulation completed.
        assert result.exec_cycles > 0
        # No negative counters anywhere.
        for counts in (result.l1_waste, result.l2_waste,
                       result.mem_waste):
            assert all(v >= 0 for v in counts.values())
        for major, buckets in result.traffic.items():
            assert all(v >= -1e-9 for v in buckets.values()), (major,
                                                               buckets)
        # Memory fetches never exceed DRAM reads x line size.
        assert (result.words_fetched("mem")
                <= result.dram_stats["reads"] * 16)

    @SETTINGS
    @given(workload_ops)
    def test_mesi_denovo_agree_on_simulation_termination(self, ops):
        mesi = run(ops, "MESI")
        denovo = run(ops, "DeNovo")
        assert mesi.exec_cycles > 0 and denovo.exec_cycles > 0
        # DeNovo never produces MESI-style overhead messages.
        for key in (T.OVH_UNBLOCK, T.OVH_INVAL, T.OVH_ACK):
            assert denovo.traffic[T.OVH][key] == 0.0

    @SETTINGS
    @given(workload_ops)
    def test_determinism(self, ops):
        a = run(ops, "MESI")
        b = run(ops, "MESI")
        assert a.traffic == b.traffic
        assert a.exec_cycles == b.exec_cycles

    @SETTINGS
    @given(core_trace)
    def test_single_core_no_coherence_waste(self, trace):
        """A single core never suffers Invalidate waste under MESI."""
        result = run({5: trace}, "MESI")
        assert result.l1_waste[Category.INVALIDATE] == 0


# ----------------------------------------------------------------------
# Rung reuse: a copied result equals a direct simulation
# ----------------------------------------------------------------------

#: The micro traces' 1024 words, split into two regions.
HALF = 512

flex_pattern = st.one_of(st.none(), st.builds(
    lambda stride, offsets, prefetch: FlexPattern(
        stride, tuple(sorted({o % stride for o in offsets})), prefetch),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1,
             max_size=4),
    st.integers(min_value=0, max_value=2)))


@st.composite
def annotated_workloads(draw):
    """Two phases of random traces over two regions, each with a random
    Flex pattern and ``bypass_l2`` mark, and random updates of both at
    the barrier between the phases."""
    first, second = draw(workload_ops), draw(workload_ops)
    ops = {core: first.get(core, []) + [(OP_BARRIER, 0)]
           + second.get(core, []) for core in set(first) | set(second)}
    regions = make_region_table(*(
        Region(region_id=rid, name=f"r{rid}", base_word=rid * HALF,
               size_words=HALF, bypass_l2=draw(st.booleans()),
               flex=draw(flex_pattern))
        for rid in (0, 1)))
    updates = [RegionUpdate(rid, flex=draw(flex_pattern),
                            bypass_l2=draw(st.one_of(st.none(),
                                                     st.booleans())))
               for rid in draw(st.lists(st.sampled_from((0, 1)),
                                        max_size=2, unique=True))]
    workload = micro_workload(ops, regions=regions,
                              written_regions=[frozenset({0, 1})] * 2)
    return dataclasses.replace(workload, phase_region_updates={0: updates})


class TestRungReuse:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(annotated_workloads(), st.permutations(list(PROTOCOLS)))
    def test_every_copy_equals_a_direct_run(self, workload, order):
        """Every rung, MESI and DeNovo, in a random order: each result
        ``simulate()`` copies equals a direct ``System`` run."""
        copies = 0
        for name in order:
            source = simulator.reused_from(workload, name, TINY_SYSTEM)
            result = simulator.simulate(workload, name, TINY_SYSTEM)
            assert result.protocol == name
            if source is None:
                continue
            copies += 1
            direct = System(workload, protocol(name), TINY_SYSTEM).run()
            assert result_to_dict(result) == result_to_dict(direct), (
                f"{name} copied from {source}")
        event(f"copies: {copies}")
