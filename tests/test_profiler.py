"""Unit tests for the waste-characterization FSMs (paper Section 4.1)."""

import pytest

from repro.network import traffic as T
from repro.waste.profiler import (
    CacheLevelProfiler, Category, MemoryProfiler, WastePools)


class TestProfileEntry:
    """A profile entry is a handle into the run's verdict pool."""

    def test_first_classification_wins(self):
        p = CacheLevelProfiler("L1")
        h = p.on_arrival(0, 100, already_present=False)
        assert p.category(h) is None
        p.on_use(0, 100)
        p.on_evict(0, 100)
        assert p.category(h) is Category.USED
        assert p.count(Category.EVICT) == 0

    def test_waste_categories_not_used(self):
        """Every waste verdict resolves as waste in the traffic ledger."""
        pools = WastePools()
        p = CacheLevelProfiler("L1", pools)
        handles = [
            p.on_arrival(0, 0, already_present=True),       # Fetch
            p.on_arrival(0, 1, already_present=False),      # Write
            p.on_arrival(0, 2, already_present=False),      # Evict
            p.on_arrival(0, 3, already_present=False),      # Invalidate
            p.on_arrival(0, 4, already_present=False),      # Unevicted
        ]
        p.on_write(0, 1)
        p.on_evict(0, 2)
        p.on_invalidate(0, 3)
        p.finalize()
        assert [p.category(h) for h in handles] == [
            Category.FETCH, Category.WRITE, Category.EVICT,
            Category.INVALIDATE, Category.UNEVICTED]
        ledger = T.TrafficLedger(pools.cache_cat)
        assert handles == list(range(5))
        ledger.add_data_words(T.LD, T.DEST_L1, 4, range(5))
        ledger.finalize()
        assert ledger.bucket(T.LD, T.RESP_L1_USED) == 0
        assert ledger.bucket(T.LD, T.RESP_L1_WASTE) == 5


class TestL1Fsm:
    """Figure 4.1: load->Used, store->Write, invalidate->Invalidate,
    evict->Evict, end->Unevicted, already-present->Fetch."""

    def test_load_marks_used(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_use(0, 100)
        assert p.count(Category.USED) == 1

    def test_store_marks_write(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_write(0, 100)
        assert p.count(Category.WRITE) == 1

    def test_use_after_use_counts_once(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_use(0, 100)
        p.on_use(0, 100)
        assert p.count(Category.USED) == 1

    def test_already_present_is_fetch(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_arrival(0, 100, already_present=True)
        assert p.count(Category.FETCH) == 1
        # First copy still pending and usable.
        p.on_use(0, 100)
        assert p.count(Category.USED) == 1

    def test_evict_before_use(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_evict(0, 100)
        assert p.count(Category.EVICT) == 1

    def test_invalidate_before_use(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_invalidate(0, 100)
        assert p.count(Category.INVALIDATE) == 1

    def test_evict_after_use_does_not_reclassify(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_use(0, 100)
        p.on_evict(0, 100)
        assert p.count(Category.USED) == 1
        assert p.count(Category.EVICT) == 0

    def test_finalize_unevicted(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_arrival(0, 200, already_present=False)
        p.on_use(0, 100)
        p.finalize()
        assert p.count(Category.UNEVICTED) == 1

    def test_units_are_independent(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_arrival(1, 100, already_present=False)
        p.on_use(0, 100)
        p.on_evict(1, 100)
        assert p.count(Category.USED) == 1
        assert p.count(Category.EVICT) == 1

    def test_refill_after_evict_is_new_entry(self):
        p = CacheLevelProfiler("L1")
        p.on_arrival(0, 100, already_present=False)
        p.on_evict(0, 100)
        p.on_arrival(0, 100, already_present=False)
        p.on_use(0, 100)
        assert p.count(Category.EVICT) == 1
        assert p.count(Category.USED) == 1

    def test_totals(self):
        p = CacheLevelProfiler("L1")
        for addr in (100, 200, 300):
            p.on_arrival(0, addr, already_present=False)
        p.on_use(0, 100)
        p.finalize()
        assert p.total_words() == 3
        assert p.total_words() - p.count(Category.USED) == 2

    def test_events_on_untracked_words_are_ignored(self):
        p = CacheLevelProfiler("L1")
        p.on_use(0, 999)
        p.on_evict(0, 999)
        assert p.total_words() == 0


class TestL2Fsm:
    """Figure 4.2: no invalidate transition at the L2."""

    def test_use_means_returned_in_response(self):
        p = CacheLevelProfiler("L2")
        p.on_arrival(3, 100, already_present=False)
        p.on_use(3, 100)
        assert p.count(Category.USED) == 1

    def test_write_means_overwritten_by_writeback(self):
        p = CacheLevelProfiler("L2")
        p.on_arrival(3, 100, already_present=False)
        p.on_write(3, 100)
        assert p.count(Category.WRITE) == 1

    def test_no_invalidate_at_l2(self):
        p = CacheLevelProfiler("L2")
        with pytest.raises(RuntimeError):
            p.on_invalidate(3, 100)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            CacheLevelProfiler("L3")


class TestMemoryFsm:
    """Figure 4.3: (address, identifier) instances with refcounts."""

    def test_load_marks_used(self):
        p = MemoryProfiler()
        inst = p.fetch(100, l2_has_addr=False)
        p.install_copy(inst)
        p.on_load(inst)
        assert p.count(Category.USED) == 1

    def test_l2_presence_is_fetch_waste(self):
        p = MemoryProfiler()
        p.fetch(100, l2_has_addr=True)
        assert p.count(Category.FETCH) == 1

    def test_store_kills_all_pending_instances_of_addr(self):
        p = MemoryProfiler()
        a = p.fetch(100, l2_has_addr=False)
        b = p.fetch(100, l2_has_addr=False)
        other = p.fetch(200, l2_has_addr=False)
        p.on_store_addr(100)
        assert p.count(Category.WRITE) == 2
        assert p.category(a) is p.category(b) is Category.WRITE
        assert p.category(other) is None

    def test_store_does_not_reclassify_used(self):
        p = MemoryProfiler()
        inst = p.fetch(100, l2_has_addr=False)
        p.on_load(inst)
        p.on_store_addr(100)
        assert p.count(Category.USED) == 1
        assert p.count(Category.WRITE) == 0

    def test_evict_waits_for_last_copy(self):
        p = MemoryProfiler()
        inst = p.fetch(100, l2_has_addr=False)
        p.install_copy(inst)   # L2 copy
        p.install_copy(inst)   # L1 copy
        p.drop_copy(inst, invalidated=False)
        assert p.category(inst) is None   # one copy still on-chip
        p.drop_copy(inst, invalidated=False)
        assert p.count(Category.EVICT) == 1

    def test_invalidate_category(self):
        p = MemoryProfiler()
        inst = p.fetch(100, l2_has_addr=False)
        p.install_copy(inst)
        p.drop_copy(inst, invalidated=True)
        assert p.count(Category.INVALIDATE) == 1

    def test_excess(self):
        p = MemoryProfiler()
        p.fetch_excess(100)
        assert p.count(Category.EXCESS) == 1
        assert p.total_words() == 1

    def test_finalize_unevicted(self):
        p = MemoryProfiler()
        p.fetch(100, l2_has_addr=False)
        p.finalize()
        assert p.count(Category.UNEVICTED) == 1

    def test_total_words(self):
        p = MemoryProfiler()
        p.fetch(100, False)
        p.fetch(100, False)
        p.fetch_excess(104)
        assert p.total_words() == 3

    def test_counts_sum_to_total_after_finalize(self):
        p = MemoryProfiler()
        a = p.fetch(1, False)
        b = p.fetch(2, False)
        c = p.fetch(3, True)
        p.fetch_excess(4)
        p.on_load(a)
        p.on_store_addr(2)
        p.finalize()
        assert sum(p.counts().values()) == p.total_words() == 4


    def test_two_pending_instances_of_one_address(self):
        """A store marks every pending instance Write."""
        p = MemoryProfiler()
        a = p.fetch(7, l2_has_addr=False)
        b = p.fetch(7, l2_has_addr=False)
        p.on_store_addr(7)
        assert p.category(a) is p.category(b) is Category.WRITE
        assert p.count(Category.WRITE) == 2

    def test_settling_one_instance_keeps_the_other_indexed(self):
        p = MemoryProfiler()
        a = p.fetch(7, l2_has_addr=False)
        b = p.fetch(7, l2_has_addr=False)
        p.install_copy(a)
        p.drop_copy(a, invalidated=False)
        assert p.category(a) is Category.EVICT
        assert p.category(b) is None
        p.on_store_addr(7)
        assert p.category(b) is Category.WRITE
        assert p.count(Category.WRITE) == 1

    @pytest.mark.parametrize("addr", [2**31, 2**33])
    def test_word_address_beyond_32_bits_fails_loudly(self, addr):
        p = MemoryProfiler()
        with pytest.raises(OverflowError):
            p.fetch(addr, l2_has_addr=False)
        with pytest.raises(OverflowError):
            p.fetch_excess(addr)
        with pytest.raises(OverflowError):
            p.fetch_line(addr - 8)
        assert p.total_words() == 0
        assert len(p.pools.mem_cat) == len(p.pools.mem_refs) == 0


class TestWarmupCrossing:
    """The pools outlive ``SimContext.reset_stats()``; profilers do not."""

    def test_handle_settled_after_reset_counts_in_live_window(self):
        from repro.common.config import SystemConfig, protocol
        from repro.common.regions import RegionTable
        from repro.core.context import SimContext

        ctx = SimContext(SystemConfig(num_tiles=4), protocol("MESI"),
                         RegionTable())
        warm_mem = ctx.mem_prof
        inst = warm_mem.fetch(100, l2_has_addr=False)
        warm_mem.install_copy(inst)
        used = ctx.l1_prof.on_arrival(0, 100, already_present=False)
        ctx.l1_prof.on_use(0, 100)
        pending = ctx.l1_prof.on_arrival(0, 200, already_present=False)

        ctx.reset_stats()
        assert ctx.mem_prof is not warm_mem
        # The warm-up instance is settled by, and counted in, the live
        # window's profiler only.
        ctx.mem_prof.on_load(inst)
        assert ctx.mem_prof.count(Category.USED) == 1
        assert warm_mem.count(Category.USED) == 0
        assert ctx.mem_prof.category(inst) is Category.USED
        # The live cache profiler holds no warm-up words.
        ctx.l1_prof.on_use(0, 200)
        assert ctx.l1_prof.count(Category.USED) == 0

        # The live ledger still resolves warm-up handles through the pool.
        assert pending == used + 1
        ctx.ledger.add_data_words(T.LD, T.DEST_L1, 2,
                                  range(used, pending + 1))
        ctx.finalize()
        assert sum(ctx.mem_prof.counts().values()) == 1
        assert ctx.mem_prof.total_words() == 0
        assert ctx.ledger.bucket(T.LD, T.RESP_L1_USED) == 0.5
        assert ctx.ledger.bucket(T.LD, T.RESP_L1_WASTE) == 0.5


class TestBulkEqualsScalar:
    """Each line-granular bulk call equals its scalar loop: the same
    handles, verdict pool, counters and active rows."""

    BASE = 37 << 4          # first word of line 37
    UNIT = 3

    def _cache_profiler(self, older: bool) -> CacheLevelProfiler:
        p = CacheLevelProfiler("L1")
        # A neighbouring line's row must stay untouched.
        p.on_arrival(self.UNIT, self.BASE + 16, already_present=False)
        if older:
            # An older row on the line: pending, used and empty slots.
            for off in (2, 5, 9):
                p.on_arrival(self.UNIT, self.BASE + off,
                             already_present=False)
            p.on_use(self.UNIT, self.BASE + 5)
        return p

    @staticmethod
    def _cache_state(p: CacheLevelProfiler):
        # The scalar evict/invalidate leave an emptied row where the
        # line calls drop it; no event tells the two apart.
        return (list(p.pools.cache_cat), list(p._counts), p._total,
                {key: list(row) for key, row in p._active.items()
                 if any(handle is not None for handle in row)})

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("bulk, scalar", [
        ("arrivals_line", lambda p, unit, word: p.on_arrival(unit, word,
                                                             False)),
        ("on_use_line", lambda p, unit, word: p.on_use(unit, word)),
        ("on_evict_line", lambda p, unit, word: p.on_evict(unit, word)),
        ("on_invalidate_line",
         lambda p, unit, word: p.on_invalidate(unit, word)),
    ])
    def test_cache_line_calls(self, bulk, scalar, older):
        bulk_p = self._cache_profiler(older)
        scalar_p = self._cache_profiler(older)
        got = getattr(bulk_p, bulk)(self.UNIT, self.BASE)
        want = [scalar(scalar_p, self.UNIT, word)
                for word in range(self.BASE, self.BASE + 16)]
        if bulk == "arrivals_line":
            assert list(got) == want
        assert self._cache_state(bulk_p) == self._cache_state(scalar_p)
        # Later events see the same rows.
        for p in (bulk_p, scalar_p):
            p.on_use(self.UNIT, self.BASE + 9)
            p.finalize()
        assert self._cache_state(bulk_p) == self._cache_state(scalar_p)

    def _memory_profiler(self, older: bool):
        p = MemoryProfiler()
        handles = [p.fetch(self.BASE + 16, False)]
        if older:
            # Older pending instances of the same words, one of them
            # with two on-chip copies and one already used.
            handles += [p.fetch(word, False)
                        for word in range(self.BASE, self.BASE + 16)]
            for handle in handles:
                p.install_copy(handle)
            p.install_copy(handles[3])
            p.on_load(handles[5])
        return p, handles

    @staticmethod
    def _memory_state(p: MemoryProfiler):
        return (list(p.pools.mem_cat), list(p.pools.mem_refs),
                list(p.pools.mem_addr), list(p._counts), p._total,
                {addr: {hs} if isinstance(hs, int) else set(hs)
                 for addr, hs in p._pending_by_addr.items()})

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("present", [
        [False] * 5, [True] * 5, [False, True, False, True, True]])
    def test_arrivals_words(self, older, present):
        """The bulk call returns the scalar loop's handles as a range."""
        words = [self.BASE + off for off in (9, 2, 3, 5, 15)]
        bulk_p = self._cache_profiler(older)
        scalar_p = self._cache_profiler(older)
        got = bulk_p.arrivals_words(self.UNIT, words, present)
        want = [scalar_p.on_arrival(self.UNIT, word, flag)
                for word, flag in zip(words, present)]
        assert type(got) is range and list(got) == want
        assert self._cache_state(bulk_p) == self._cache_state(scalar_p)

    @pytest.mark.parametrize("older", [False, True])
    def test_fetch_line(self, older):
        bulk_p, _ = self._memory_profiler(older)
        scalar_p, _ = self._memory_profiler(older)
        got = bulk_p.fetch_line(self.BASE)
        want = [scalar_p.fetch(word, False)
                for word in range(self.BASE, self.BASE + 16)]
        assert list(got) == want
        assert self._memory_state(bulk_p) == self._memory_state(scalar_p)
        for p in (bulk_p, scalar_p):
            p.on_store_addr(self.BASE + 4)
            p.finalize()
        assert self._memory_state(bulk_p) == self._memory_state(scalar_p)

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("invalidated", [None, False, True])
    def test_install_and_drop_copies(self, older, invalidated):
        """``invalidated=None`` checks ``install_copies``, otherwise
        ``drop_copies``; None slots (locally written words) are
        skipped."""
        states = []
        for bulk in (True, False):
            p, _ = self._memory_profiler(older)
            line = list(p.fetch_line(self.BASE))
            p.install_copies(line)
            slots = line[:]
            slots[7] = None
            if invalidated is None:
                if bulk:
                    p.install_copies(slots)
                else:
                    for handle in slots:
                        if handle is not None:
                            p.install_copy(handle)
            elif bulk:
                p.drop_copies(slots, invalidated=invalidated)
            else:
                for handle in slots:
                    if handle is not None:
                        p.drop_copy(handle, invalidated=invalidated)
            p.finalize()
            states.append(self._memory_state(p))
        assert states[0] == states[1]
