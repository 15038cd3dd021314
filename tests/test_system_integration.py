"""End-to-end system tests: invariants that must hold for every run."""

import dataclasses

import pytest

from repro.common.config import (
    PROTOCOL_ORDER, ScaleConfig, SystemConfig, protocol, scaled_system)
from repro.core.simulator import simulate, simulate_all_protocols
from repro.core.system import System
from repro.engine.events import BARRIER_RELEASE_COST
from repro.network import traffic as T
from repro.waste.profiler import Category
from repro.workloads import build_workload
from repro.workloads.trace import OP_BARRIER, OP_LOAD, OP_STORE

from tests.conftest import TINY_SYSTEM, micro_workload

SCALE = ScaleConfig.tiny()
CFG = scaled_system(SCALE)


@pytest.fixture(scope="module", params=["radix", "barnes"])
def workload(request):
    return build_workload(request.param, SCALE)


class TestDeterminism:
    @pytest.mark.parametrize("proto", ["MESI", "DBypFull"])
    def test_repeated_runs_identical(self, workload, proto):
        a = simulate(workload, proto, CFG)
        b = simulate(workload, proto, CFG)
        assert a.traffic == b.traffic
        assert a.exec_cycles == b.exec_cycles
        assert a.l1_waste == b.l1_waste
        assert a.mem_waste == b.mem_waste


class TestInvariants:
    @pytest.mark.parametrize("proto", PROTOCOL_ORDER)
    def test_run_completes_for_every_protocol(self, workload, proto):
        result = simulate(workload, proto, CFG)
        assert result.exec_cycles > 0
        assert result.traffic_total() > 0

    @pytest.mark.parametrize("proto", ["MESI", "DeNovo", "DBypFull"])
    def test_waste_counts_nonnegative_and_complete(self, workload, proto):
        result = simulate(workload, proto, CFG)
        for counts in (result.l1_waste, result.l2_waste, result.mem_waste):
            assert all(v >= 0 for v in counts.values())
        # The L1 always receives words; the L2/memory levels may see
        # nothing in the measured window when a tiny input fits on-chip
        # after warm-up.
        assert sum(result.l1_waste.values()) > 0

    @pytest.mark.parametrize("proto", ["MESI", "DeNovo"])
    def test_time_attribution_covers_exec(self, workload, proto):
        """Aggregated per-core time roughly accounts for 16 cores' cycles:
        every cycle is busy, stalled or synchronizing."""
        result = simulate(workload, proto, CFG)
        attributed = sum(result.time.values())
        total = 16 * result.exec_cycles
        assert attributed <= total * 1.05
        assert attributed >= total * 0.5

    def test_mesi_has_overhead_denovo_does_not(self, workload):
        mesi = simulate(workload, "MESI", CFG)
        denovo = simulate(workload, "DeNovo", CFG)
        assert mesi.overhead_fraction() > 0.02
        assert denovo.overhead_fraction() < 0.02

    def test_dram_reads_match_memory_fetches(self, workload):
        """Every word fetched from memory derives from some DRAM read:
        fetched words <= 16 words per DRAM line read."""
        for proto in ("MESI", "DeNovo", "DBypFull"):
            result = simulate(workload, proto, CFG)
            fetched = result.words_fetched("mem")
            assert fetched <= result.dram_stats["reads"] * 16


class TestWarmupReset:
    def test_warmup_stats_excluded(self):
        """A workload whose only measured phase is empty reports almost
        no traffic even though warm-up moved data."""
        ops = {0: [(OP_LOAD, 80), (OP_LOAD, 96), (OP_BARRIER, 0),
                   (OP_BARRIER, 0)]}
        w = dataclasses.replace(micro_workload(ops), warmup_barriers=1)
        result = System(w, protocol("MESI"), TINY_SYSTEM).run()
        # All load traffic happened before the warm-up barrier.
        assert result.traffic_major(T.LD) == 0

    def test_measured_phase_counted(self):
        ops = {0: [(OP_BARRIER, 0), (OP_LOAD, 80), (OP_BARRIER, 0)]}
        w = dataclasses.replace(micro_workload(ops), warmup_barriers=1)
        result = System(w, protocol("MESI"), TINY_SYSTEM).run()
        assert result.traffic_major(T.LD) > 0

    @pytest.mark.parametrize("proto", ["MESI", "DeNovo"])
    def test_one_ledger_and_profiler_set_for_the_whole_run(self, proto):
        """The warm-up barrier marks the window; it replaces no ledger
        or profiler, so each one counted since cycle 0."""
        ops = {0: [(OP_LOAD, 80), (OP_BARRIER, 0), (OP_LOAD, 160),
                   (OP_BARRIER, 0)]}
        w = dataclasses.replace(micro_workload(ops), warmup_barriers=1)
        system = System(w, protocol(proto), TINY_SYSTEM)
        ctx = system.ctx

        def objects():
            return (ctx.ledger, ctx.l1_prof, ctx.l2_prof, ctx.mem_prof)

        before = objects()
        marks = []
        mark_window = ctx.mark_window

        def recording_mark():
            marks.append(system.barrier.barriers_passed)
            mark_window()
            marks.append(objects())

        ctx.mark_window = recording_mark
        system.run()
        assert marks[0] == 1
        assert all(now is then for now, then in zip(marks[1], before))
        assert all(now is then for now, then in zip(objects(), before))
        # The warm-up load's words are in the pools but not the window.
        assert len(ctx.pools.l1_cat) > ctx.l1_prof.total_words() > 0


class TestCrossProtocolShapes:
    """Relative orderings that must hold on any workload."""

    def test_denovo_store_data_less_than_mesi(self, workload):
        """Write-validate eliminates store fetch data at the L1."""
        mesi = simulate(workload, "MESI", CFG)
        dv = simulate(workload, "DValidateL2", CFG)
        mesi_st_l1 = (mesi.traffic_bucket(T.ST, T.RESP_L1_USED)
                      + mesi.traffic_bucket(T.ST, T.RESP_L1_WASTE))
        dv_st_l1 = (dv.traffic_bucket(T.ST, T.RESP_L1_USED)
                    + dv.traffic_bucket(T.ST, T.RESP_L1_WASTE))
        assert dv_st_l1 == 0
        assert mesi_st_l1 >= 0

    def test_wb_waste_eliminated_by_dirty_only(self, workload):
        dv = simulate(workload, "DValidateL2", CFG)
        assert dv.traffic_bucket(T.WB, T.WB_L2_WASTE) == 0
        assert dv.traffic_bucket(T.WB, T.WB_MEM_WASTE) == 0

    def test_total_traffic_ordering(self, workload):
        """DBypFull never exceeds baseline MESI traffic."""
        mesi = simulate(workload, "MESI", CFG)
        best = simulate(workload, "DBypFull", CFG)
        assert best.traffic_total() < mesi.traffic_total()


class TestBarrierReleaseCost:
    """Every barrier costs the machine BARRIER_RELEASE_COST cycles."""

    def _system(self):
        ops = {0: [(OP_STORE, 0), (OP_BARRIER, 0), (OP_LOAD, 0)]}
        return System(micro_workload(ops), protocol("MESI"), TINY_SYSTEM)

    def test_threaded_through_system(self):
        assert self._system().barrier._release_cost == BARRIER_RELEASE_COST

    def test_cost_shows_up_in_execution_time(self):
        cheap, dear = self._system(), self._system()
        cheap.barrier._release_cost = 0
        dear.barrier._release_cost = 5000
        assert dear.run().exec_cycles > cheap.run().exec_cycles

    def test_default_matches_paper_value(self):
        assert BARRIER_RELEASE_COST == 50


class TestBeyondPaperRungs:
    """The registry's extra rungs run end-to-end on real workloads."""

    @pytest.mark.parametrize("proto", ["MDirtyWB", "DWordHybrid"])
    def test_run_completes(self, workload, proto):
        result = simulate(workload, proto, CFG)
        assert result.exec_cycles > 0
        assert result.traffic_total() > 0

    def test_mdirty_wb_never_exceeds_mesi_traffic(self, workload):
        mesi = simulate(workload, "MESI", CFG)
        dirty = simulate(workload, "MDirtyWB", CFG)
        assert dirty.traffic_total() <= mesi.traffic_total()
        assert dirty.traffic_bucket(T.WB, T.WB_L2_WASTE) == 0
        assert dirty.traffic_bucket(T.WB, T.WB_MEM_WASTE) == 0


class TestSimulateApi:
    def test_accepts_protocol_object(self, workload):
        result = simulate(workload, protocol("MESI"), CFG)
        assert result.protocol == "MESI"

    def test_simulate_all_protocols(self, workload):
        results = simulate_all_protocols(workload, ["MESI", "DeNovo"], CFG)
        assert set(results) == {"MESI", "DeNovo"}

    def test_core_count_mismatch_rejected(self):
        w = build_workload("radix", SCALE)
        bad = SystemConfig(num_tiles=4)
        with pytest.raises(ValueError):
            System(w, protocol("MESI"), bad)
