"""Unit tests for how the protocol cores read a rung's flags.

Each core copies the ``ProtocolConfig`` flags it uses into attributes
when it is built.  Covers those attributes for every rung, the
writeback payload flags and the Flex word gathering they select, the
L2 bypass, and the flags exercised end-to-end by both protocol cores
(MESI and DeNovo), including the beyond-paper rungs MDirtyWB and
DWordHybrid.
"""

import pytest

from tests.conftest import (
    TINY_SYSTEM, loads, micro_workload, run_micro, simple_region, stores)
from repro.cache.sa_cache import FULL_MASK
from repro.coherence import DenovoSystem, MesiSystem
from repro.coherence.kernel import L1_ASSOC
from repro.common.addressing import WORDS_PER_LINE, words_of_line
from repro.common.config import PROTOCOLS, protocol, scaled_system
from repro.common.regions import FlexPattern, Region, RegionTable
from repro.core.system import System
from repro.network import traffic as T


def flex_table(stride=8, fields=(0, 1), size=4096, bypass=False):
    table = RegionTable()
    table.add(Region(region_id=0, name="structs", base_word=0,
                     size_words=size, bypass_l2=bypass,
                     flex=FlexPattern(stride_words=stride,
                                      field_offsets=fields)))
    return table


def core(name, regions=None):
    """The protocol core a ``name`` machine is built with."""
    workload = micro_workload({}, regions=regions if regions is not None
                              else flex_table())
    return System(workload, protocol(name), TINY_SYSTEM).proto_sys


def valid_l1_line(proto_sys, tile, line_addr):
    """Install ``line_addr`` in ``tile``'s L1 with every word valid."""
    line, _ = proto_sys.l1[tile].allocate(line_addr)
    line.valid = FULL_MASK


#: Dirty mask of words 0 and 2.
DIRTY = 0b101


# ----------------------------------------------------------------------
# Writeback payload size (MESI; DeNovo L1 writebacks are always
# dirty-words-only)
# ----------------------------------------------------------------------

class TestWritebackPolicy:
    def test_full_line_flags_pass_through(self):
        assert core("MESI")._wb_words(DIRTY) == WORDS_PER_LINE

    def test_dirty_only_ships_just_the_dirty_words(self):
        assert core("MDirtyWB")._wb_words(DIRTY) == 2

    def test_payload_counts_follow_the_dirty_mask(self):
        mesi, dirty_only = core("MESI"), core("MDirtyWB")
        for mask in (0, 1, DIRTY, 0x8001, FULL_MASK):
            assert mesi._wb_words(mask) == WORDS_PER_LINE
            assert dirty_only._wb_words(mask) == bin(mask).count("1")


# ----------------------------------------------------------------------
# Flex word gathering (DeNovo)
# ----------------------------------------------------------------------

class TestTransferPolicy:
    def test_line_granular_without_flex(self):
        denovo = core("DeNovo")
        assert not denovo._flex_l1 and not denovo._flex_l2
        valid_l1_line(denovo, 0, 2)
        # Word 37 is a region field, but without Flex the cache-sourced
        # response is the whole line.
        assert denovo._gather_owner_words(0, 37) == \
            (2, list(words_of_line(2)))

    def test_flex_l1_gathers_region_fields(self):
        flex = core("DFlexL1", flex_table(stride=8, fields=(0, 1)))
        assert flex._flex_l1 and not flex._flex_l2
        region = flex.ctx.regions.find(9)
        # Word 9 = element 1, field offset 1 -> fields {8, 9}.
        assert flex._flex_words(region, 9) == [8, 9]
        valid_l1_line(flex, 0, 0)
        assert flex._gather_owner_words(0, 9) == (-1, [8, 9])

    def test_flex_inserts_requested_word_when_off_field(self):
        flex = core("DFlexL1", flex_table(stride=8, fields=(0, 1)))
        region = flex.ctx.regions.find(12)
        # Word 12 is element 1, offset 4 — not a used field; the
        # requested word must still lead the response.
        assert flex._flex_words(region, 12) == [12, 8, 9]

    def test_flex_l2_exposes_the_memory_region(self):
        flex = core("DFlexL2")
        assert flex._flex_l1 and flex._flex_l2
        region = flex.ctx.regions.flex_region_for(9)
        assert region is not None
        assert flex._flex_words(region, 9) == [8, 9]

    def test_falls_back_to_line_outside_flex_regions(self):
        flex = core("DFlexL1", flex_table(size=64))
        outside = 4096
        valid_l1_line(flex, 0, outside // WORDS_PER_LINE)
        assert flex._gather_owner_words(0, outside) == \
            (outside // WORDS_PER_LINE, list(range(outside,
                                                   outside + 16)))


# ----------------------------------------------------------------------
# L2 response bypass (DeNovo)
# ----------------------------------------------------------------------

class TestBypassPolicy:
    def l2_holds_line_after_load(self, proto, bypass):
        ops = {0: []}
        loads(ops[0], 0)
        _, system = run_micro(ops, proto=proto,
                              regions=simple_region(bypass_l2=bypass))
        denovo = system.proto_sys
        return denovo.l2[denovo._home_tile(0)].lookup(0, False) is not None

    def test_disabled_never_bypasses(self):
        assert not core("DeNovo")._bypass_response
        assert self.l2_holds_line_after_load("DeNovo", bypass=True)

    def test_enabled_requires_annotated_region(self):
        assert not self.l2_holds_line_after_load("DBypL2", bypass=True)
        assert self.l2_holds_line_after_load("DBypL2", bypass=False)


# ----------------------------------------------------------------------
# Flags each rung's core reads
# ----------------------------------------------------------------------

class TestResolvePolicies:
    def test_mesi_baseline(self):
        mesi = core("MESI")
        assert not mesi.mem_to_l1
        assert mesi._wb_words(0) == WORDS_PER_LINE

    def test_mmeml1_routes_memory_to_l1(self):
        assert core("MMemL1").mem_to_l1

    def test_mdirty_wb_filters_both_writeback_levels(self):
        # One payload callable serves the L1 and the L2->memory writebacks.
        assert core("MDirtyWB")._wb_words(0b01) == 1

    def test_denovo_baseline_fetches_on_l2_write_miss(self):
        denovo = core("DeNovo")
        assert denovo._l2_fetch_on_write
        assert not denovo._l2_dirty_wb_only

    def test_dvalidatel2_write_validates_and_filters(self):
        denovo = core("DValidateL2")
        assert not denovo._l2_fetch_on_write
        assert denovo._l2_dirty_wb_only

    def test_dword_hybrid_keeps_line_fills_but_word_writebacks(self):
        hybrid = core("DWordHybrid")
        assert hybrid._l2_fetch_on_write          # line-granularity fills
        assert hybrid._l2_dirty_wb_only           # word-granularity WBs

    def test_dbypfull_enables_both_bypasses(self):
        full = core("DBypFull")
        assert full._bypass_response and full._bypass_request
        assert full.slice_blooms and full.l1_blooms

    def test_flex_rungs_resolve_transfer_policy(self):
        assert core("DFlexL1")._flex_l1
        assert not core("DFlexL1")._flex_l2
        assert core("DFlexL2")._flex_l2

    @pytest.mark.parametrize("name", tuple(PROTOCOLS))
    def test_every_registered_rung_resolves(self, name):
        proto = protocol(name)
        built = core(name)
        if proto.kind == "mesi":
            assert type(built) is MesiSystem
            assert built.mem_to_l1 == proto.mem_to_l1
            assert (built._wb_words(0) == WORDS_PER_LINE) == (
                not proto.dirty_wb_only)
            return
        assert type(built) is DenovoSystem
        assert built._bypass_response == proto.bypass_l2_response
        assert built._bypass_request == proto.bypass_l2_request
        assert built._mem_to_l1 == proto.mem_to_l1
        assert built._flex_l1 == proto.flex_l1
        assert built._flex_l2 == proto.flex_l2
        assert built._l2_dirty_wb_only == proto.l2_dirty_wb_only
        assert built._l2_fetch_on_write == (not proto.l2_write_validate)
        # Only the request bypass builds Bloom filters.
        assert bool(built.slice_blooms) == proto.bypass_l2_request


# ----------------------------------------------------------------------
# Flags exercised through both protocol cores
# ----------------------------------------------------------------------

def _write_two_words_per_line(lines=4):
    """One core writes two words in each of ``lines`` distinct lines of
    the same L1 set, forcing dirty evictions in the tiny system."""
    ops = []
    cache_lines = TINY_SYSTEM.l1_kb * 1024 // TINY_SYSTEM.line_bytes
    sets = cache_lines // L1_ASSOC
    span = sets * WORDS_PER_LINE * (L1_ASSOC + lines)
    for i in range(lines * 8):
        base = (i * sets) * WORDS_PER_LINE % span
        stores(ops, base, base + 1)
    return {0: ops}


class TestWritebackPolicyThroughCores:
    def wb_data(self, result):
        return (result.traffic[T.WB][T.WB_L2_USED]
                + result.traffic[T.WB][T.WB_L2_WASTE]
                + result.traffic[T.WB][T.WB_MEM_USED]
                + result.traffic[T.WB][T.WB_MEM_WASTE])

    def test_mdirty_wb_reduces_mesi_writeback_traffic(self):
        ops = _write_two_words_per_line()
        base, _ = run_micro(ops, proto="MESI")
        dirty, _ = run_micro(ops, proto="MDirtyWB")
        assert self.wb_data(base) > 0
        assert self.wb_data(dirty) < self.wb_data(base)
        # The filtered writebacks carry no clean (waste) words.
        assert dirty.traffic[T.WB][T.WB_L2_WASTE] == 0.0
        assert dirty.traffic[T.WB][T.WB_MEM_WASTE] == 0.0

    def test_dword_hybrid_removes_mem_wb_waste_of_denovo(self):
        # fluidanimate at tiny scale evicts partially-dirty lines from
        # the L2 to memory: whole-line under baseline DeNovo (Mem
        # Waste), dirty-words-only under DWordHybrid.
        from repro.common.config import ScaleConfig
        from repro.core.simulator import simulate
        from repro.workloads import build_workload
        scale = ScaleConfig.tiny()
        workload = build_workload("fluidanimate", scale)
        config = scaled_system(scale)
        base = simulate(workload, "DeNovo", config)
        hybrid = simulate(workload, "DWordHybrid", config)
        assert base.traffic[T.WB][T.WB_MEM_WASTE] > 0
        assert hybrid.traffic[T.WB][T.WB_MEM_WASTE] == 0.0
        assert self.wb_data(hybrid) < self.wb_data(base)

    def test_mesi_baseline_writes_back_whole_lines(self):
        ops = _write_two_words_per_line()
        base, _ = run_micro(ops, proto="MESI")
        # Partially dirty lines shipped whole -> clean words become waste.
        assert base.traffic[T.WB][T.WB_L2_WASTE] > 0


class TestCoresComposePolicies:
    @pytest.mark.parametrize("name", ("MDirtyWB", "DWordHybrid"))
    def test_new_rungs_complete_micro_workloads(self, name):
        ops = {0: [], 1: []}
        loads(ops[0], 0, 8, 16)
        stores(ops[0], 0, 4)
        loads(ops[1], 0, 16)
        stores(ops[1], 128)
        result, system = run_micro(ops, proto=name)
        assert result.protocol == name
        assert result.exec_cycles > 0
        assert system.proto_sys.stats() == result.protocol_stats

    @pytest.mark.parametrize("name", tuple(PROTOCOLS))
    def test_stats_protocol_for_every_rung(self, name):
        ops = {0: []}
        stores(ops[0], 0, 1)
        loads(ops[0], 64)
        result, system = run_micro(ops, proto=name)
        stats = system.proto_sys.stats()
        assert isinstance(stats, dict)
        assert stats == result.protocol_stats
        assert all(isinstance(v, int) for v in stats.values())
