"""Protocol-level tests for DeNovo and its optimizations."""

import pytest

from repro.common.config import SystemConfig
from repro.common.regions import FlexPattern, Region
from repro.network import traffic as T
from repro.waste.profiler import Category
from repro.workloads.trace import OP_BARRIER, OP_LOAD, OP_STORE

from tests.conftest import (
    TINY_SYSTEM, make_region_table, run_micro, simple_region)


class TestWriteValidate:
    def test_store_miss_fetches_nothing(self):
        """L1 write-validate: a store miss allocates without any fetch."""
        result, _ = run_micro({9: [(OP_STORE, 80)]}, proto="DeNovo")
        assert result.dram_stats["reads"] >= 1  # L2 fetch-on-write fetches
        assert result.words_fetched("l1") == 0  # but nothing enters the L1

    def test_l2_write_validate_removes_memory_fetch(self):
        """DValidateL2: the registration allocates the L2 line without
        fetching it from memory."""
        result, _ = run_micro({9: [(OP_STORE, 80)]}, proto="DValidateL2")
        assert result.dram_stats["reads"] == 0
        assert result.words_fetched("l2") == 0

    def test_baseline_l2_fetch_on_write_is_store_traffic(self):
        """The baseline's L2 write-miss fetch shows up as ST Resp L2."""
        result, _ = run_micro({9: [(OP_STORE, 80)]}, proto="DeNovo")
        resp_l2 = (result.traffic_bucket(T.ST, T.RESP_L2_USED)
                   + result.traffic_bucket(T.ST, T.RESP_L2_WASTE))
        assert resp_l2 > 0

    def test_store_then_local_load_hits(self):
        result, _ = run_micro({9: [(OP_STORE, 80), (OP_LOAD, 80)]},
                              proto="DeNovo")
        assert result.l1_waste[Category.USED] == 0   # no fetched words at L1
        assert result.mem_waste[Category.WRITE] >= 0


class TestLineFill:
    def test_whole_line_fill_keeps_write_validated_words(self):
        """A whole-line fill that lands on a line a store write-validated
        while the fill was in flight fills only the Invalid words."""
        from repro.coherence.denovo import W_REG, W_VALID
        from repro.common.config import protocol
        from repro.core.system import System
        from tests.conftest import micro_workload

        system = System(micro_workload({9: [(OP_LOAD, 80)]}),
                        protocol("DeNovo"), TINY_SYSTEM)
        proto = system.proto_sys
        fill = proto._l1_load_fill
        seen = []

        def store_then_fill(req, line_addr, words, insts, completes, t):
            proto.store(req.core, 83, t)
            fill(req, line_addr, words, insts, completes, t)
            line = proto.l1[req.core].lookup(5, touch=False)
            seen.append((list(words), list(line.word_state),
                         list(line.mem_inst), list(insts)))

        proto._l1_load_fill = store_then_fill
        result = system.run()
        assert result.protocol_stats["registrations"] == 1
        [(words, state, mem_inst, insts)] = seen
        assert words == list(range(80, 96))    # one whole line
        assert state == [W_VALID] * 3 + [W_REG] + [W_VALID] * 12
        assert mem_inst[3] is None         # the stored word has no copy
        assert mem_inst[:3] + mem_inst[4:] == list(insts[:3]) + list(
            insts[4:])
        # The fill's copy of word 83 lost to the store: Write waste.
        assert result.l1_waste[Category.WRITE] == 1

    @pytest.mark.parametrize("offsets", [range(16), (0, 3, 5)])
    def test_dropped_prefetch_line_probes_like_the_word_path(self, offsets):
        """A Flex prefetch line with no free way is dropped; the one-line
        fill charges the probes the word-list fill charges."""
        from repro.common.config import protocol
        from repro.core.context import LoadRequest
        from repro.core.system import System
        from tests.conftest import micro_workload

        system = System(micro_workload({}), protocol("DFlexL2"), TINY_SYSTEM)
        proto = system.proto_sys
        l1 = proto.l1[0]
        # Pin every way of set 0; the prefetched line maps there too.
        for way in range(l1.assoc):
            proto._allocate_l1(0, way * l1.num_sets)
            proto._protected[0].add(way * l1.num_sets)
        prefetched = l1.assoc * l1.num_sets
        req = LoadRequest(core=0, addr=0, t_issue=0, on_done=None)
        words = [prefetched * 16 + off for off in offsets]
        charged = []
        for line_addr in (prefetched, -1):        # one-line, word list
            before = l1.stat_probes
            proto._l1_load_fill(req, line_addr, words, [None] * len(words),
                                False, 0)
            charged.append(l1.stat_probes - before)
            assert l1.lookup(prefetched, touch=False) is None
        # Per word: one lookup, then the reservation check (one probe
        # for the line, one per pinned line of its set).
        assert charged == [len(words) * (2 + l1.assoc)] * 2


class TestRegistration:
    def test_store_sends_registration(self):
        result, sys = run_micro({9: [(OP_STORE, 80)]}, proto="DeNovo")
        assert sys.proto_sys.stat_registrations >= 1
        assert result.traffic_bucket(T.ST, T.REQ_CTL) > 0

    def test_write_combining_batches_line(self):
        """16 stores to one line: one registration message."""
        ops = [(OP_STORE, 80 + w) for w in range(16)]
        _result, sys = run_micro({9: ops}, proto="DeNovo")
        assert sys.proto_sys.stat_registrations == 1

    def test_registration_invalidates_old_registrant(self):
        """Core 1 writes a word core 0 registered: core 0's copy dies."""
        result, sys = run_micro({
            0: [(OP_STORE, 80), (OP_BARRIER, 0), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_STORE, 80), (OP_BARRIER, 0)],
        }, proto="DeNovo")
        assert sys.proto_sys.stat_reg_invalidations >= 1

    def test_no_mesi_overhead_messages(self):
        """DeNovo has no invalidation/ack/unblock overhead traffic."""
        result, _ = run_micro({
            0: [(OP_LOAD, 80), (OP_BARRIER, 0), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_STORE, 80), (OP_BARRIER, 0)],
        }, proto="DeNovo")
        assert result.traffic_bucket(T.OVH, T.OVH_UNBLOCK) == 0
        assert result.traffic_bucket(T.OVH, T.OVH_INVAL) == 0
        assert result.traffic_bucket(T.OVH, T.OVH_ACK) == 0


class TestOwnerForward:
    def test_load_of_registered_word_forwards(self):
        """A load of a word registered to another core is served
        cache-to-cache; memory is read only for the L2 write-miss fill."""
        result, _ = run_micro({
            0: [(OP_STORE, 80), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_LOAD, 80)],
        }, proto="DValidateL2")
        assert result.dram_stats["reads"] == 0   # no fetch at all

    def test_owner_keeps_registration(self):
        """After a forward, the owner still owns: a second reader is
        forwarded again, and the owner's later store needs no message."""
        _result, sys = run_micro({
            0: [(OP_STORE, 80), (OP_BARRIER, 0), (OP_BARRIER, 0),
                (OP_STORE, 80), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_LOAD, 80), (OP_BARRIER, 0),
                (OP_BARRIER, 0)],
        }, proto="DValidateL2")
        # Second store by owner to a word it still owns: no new
        # registration beyond the first one.
        assert sys.proto_sys.stat_registrations == 1


class TestSelfInvalidation:
    def test_written_region_invalidated_at_barrier(self):
        """Core 1's valid copy of a written region dies at the barrier."""
        result, sys = run_micro({
            0: [(OP_LOAD, 80), (OP_BARRIER, 0), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_STORE, 96), (OP_BARRIER, 0)],
        }, proto="DeNovo")
        assert sys.proto_sys.stat_self_invalidated_words > 0

    def test_untouched_region_survives(self):
        """Self-invalidation is region-precise: data in regions nobody
        wrote stays valid across barriers."""
        regions = make_region_table(
            Region(0, "ro", 0, 1024),
            Region(1, "rw", 1024, 1024))
        result, _ = run_micro({
            0: [(OP_LOAD, 80), (OP_BARRIER, 0), (OP_STORE, 1024),
                (OP_BARRIER, 0), (OP_LOAD, 80), (OP_BARRIER, 0)],
        }, proto="DeNovo", regions=regions,
            written_regions=[frozenset(), frozenset({1}), frozenset()])
        # The second load of 80 hits (one memory fetch for its line).
        line_reads = result.dram_stats["reads"]
        assert result.l1_waste[Category.INVALIDATE] == 0

    def test_registered_words_survive_barrier(self):
        """The writer's own registered words are not self-invalidated."""
        result, _ = run_micro({
            9: [(OP_STORE, 80), (OP_BARRIER, 0), (OP_LOAD, 80),
                (OP_BARRIER, 0)],
        }, proto="DValidateL2")
        # The load after the barrier hits locally: no load traffic at all.
        assert result.traffic_major(T.LD) == 0


class TestDirtyWordWritebacks:
    def _evict_ops(self, n_lines=9):
        """Store one word in each of n even-indexed lines (same L1 set)."""
        return [(OP_STORE, i * 32 * 16) for i in range(n_lines)]

    def test_l1_wb_sends_dirty_words_only(self):
        """DeNovo L1->L2 writebacks carry no clean words."""
        result, _ = run_micro({9: self._evict_ops()}, proto="DeNovo")
        assert result.traffic_bucket(T.WB, T.WB_L2_USED) > 0
        assert result.traffic_bucket(T.WB, T.WB_L2_WASTE) == 0

    def test_baseline_l2_wb_full_line(self):
        """Baseline DeNovo writes whole lines to memory (Mem Waste)."""
        # Evict enough L2 lines: tiny L2 slice is 2KB = 32 lines; all our
        # even lines map home slice 0; overflow its sets.
        ops = [(OP_STORE, i * 16 * 16) for i in range(0, 80, 2)]
        result, _ = run_micro({9: ops}, proto="DeNovo")
        if result.traffic_bucket(T.WB, T.WB_MEM_USED) > 0:
            assert result.traffic_bucket(T.WB, T.WB_MEM_WASTE) > 0

    def test_validatel2_wb_dirty_only(self):
        """DValidateL2 writes only dirty words to memory."""
        ops = [(OP_STORE, i * 16 * 16) for i in range(0, 80, 2)]
        result, _ = run_micro({9: ops}, proto="DValidateL2")
        assert result.traffic_bucket(T.WB, T.WB_MEM_WASTE) == 0


class TestFlex:
    def make_flex_regions(self):
        # Array of 8-word structs; fields 0 and 1 are the hot ones.
        flex = FlexPattern(stride_words=8, field_offsets=(0, 1))
        return make_region_table(
            Region(0, "aos", 0, 4096, flex=flex))

    def test_flex_response_smaller(self):
        """DFlexL1 responses carry the communication region, not the line."""
        regions = self.make_flex_regions()
        ops = {0: [(OP_STORE, 256), (OP_STORE, 257), (OP_BARRIER, 0)],
               1: [(OP_BARRIER, 0), (OP_LOAD, 256)]}
        base, _ = run_micro(ops, proto="DeNovo",
                            regions=self.make_flex_regions())
        flex, _ = run_micro(ops, proto="DFlexL1",
                            regions=self.make_flex_regions())
        base_data = (base.traffic_bucket(T.LD, T.RESP_L1_USED)
                     + base.traffic_bucket(T.LD, T.RESP_L1_WASTE))
        flex_data = (flex.traffic_bucket(T.LD, T.RESP_L1_USED)
                     + flex.traffic_bucket(T.LD, T.RESP_L1_WASTE))
        assert flex_data <= base_data

    def test_flex_l2_excess_waste(self):
        """DFlexL2 drops non-region words at the memory controller."""
        regions = self.make_flex_regions()
        result, _ = run_micro({0: [(OP_LOAD, 256)]}, proto="DFlexL2",
                              regions=regions)
        assert result.mem_waste[Category.EXCESS] > 0

    def test_flex_prefetch_gathers_elements(self):
        """A prefetching pattern pulls following elements' fields in one
        response (kD-tree edges style)."""
        flex = FlexPattern(stride_words=8, field_offsets=(0, 1),
                           prefetch_elements=3)
        regions = make_region_table(Region(0, "stream", 0, 4096, flex=flex))
        result, _ = run_micro(
            {0: [(OP_LOAD, 256), (OP_LOAD, 264)]},   # two elements
            proto="DFlexL2", regions=regions)
        # The second element's field arrived with the first response.
        assert result.l1_waste[Category.USED] >= 2


class TestBypass:
    def make_bypass_regions(self):
        return make_region_table(
            Region(0, "stream", 0, 65536, bypass_l2=True))

    def test_response_bypass_skips_l2_fill(self):
        """DBypL2: memory responses for bypassed regions skip the L2."""
        regions = self.make_bypass_regions()
        result, _ = run_micro({0: [(OP_LOAD, 256)]}, proto="DBypL2",
                              regions=regions)
        assert result.words_fetched("l2") == 0
        assert result.words_fetched("l1") > 0

    def test_non_bypassed_region_still_fills_l2(self):
        regions = make_region_table(Region(0, "normal", 0, 65536))
        result, _ = run_micro({0: [(OP_LOAD, 256)]}, proto="DBypL2",
                              regions=regions)
        assert result.words_fetched("l2") > 0

    def test_request_bypass_goes_direct(self):
        """DBypFull: with a clean Bloom filter, the request goes straight
        to the memory controller."""
        regions = self.make_bypass_regions()
        _result, sys = run_micro(
            {0: [(OP_LOAD, 256), (OP_LOAD, 512)]},
            proto="DBypFull", regions=regions)
        assert sys.proto_sys.stat_direct_requests >= 1
        assert sys.proto_sys.stat_bloom_copies >= 1

    def test_bloom_copy_is_overhead_traffic(self):
        regions = self.make_bypass_regions()
        result, _ = run_micro({9: [(OP_LOAD, 256)]}, proto="DBypFull",
                              regions=regions)
        assert result.traffic_bucket(T.OVH, T.OVH_BLOOM) > 0

    def test_dirty_line_not_bypassed(self):
        """A line with dirty words on-chip must go through the L2 (the
        Bloom filter reports it)."""
        regions = self.make_bypass_regions()
        result, sys = run_micro({
            0: [(OP_STORE, 256), (OP_BARRIER, 0), (OP_BARRIER, 0)],
            1: [(OP_BARRIER, 0), (OP_LOAD, 256), (OP_BARRIER, 0)],
        }, proto="DBypFull", regions=regions)
        # The load found the word via the L2/owner, not stale memory:
        # loads of on-chip-dirty data are never served directly.
        assert result.dram_stats["reads"] == 0


class TestMemToL1:
    def test_parallel_transfer_reduces_latency_not_traffic(self):
        ops = {9: [(OP_LOAD, 80)]}
        base, _ = run_micro(ops, proto="DValidateL2")
        opt, _ = run_micro(ops, proto="DMemL1")
        # Same words move (to L1 and L2), but the L1 gets its copy sooner.
        assert opt.exec_cycles <= base.exec_cycles
