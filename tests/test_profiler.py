"""Unit tests for the waste-characterization FSMs (paper Section 4.1)."""

from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network import traffic as T
from repro.waste.profiler import (
    _BY_CODE, C_EVICT, C_EXCESS, C_FETCH, C_INVALIDATE, C_UNEVICTED, C_USED,
    C_WRITE, NO_HANDLE, PENDING, CacheLevelProfiler, Category,
    MemoryProfiler, WastePools)


MODEL_SETTINGS = settings(max_examples=100, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])

#: The scalar event each line call loops over the line's words, for a
#: profiler or a reference model.
_SCALAR_OF_LINE = {
    "arrivals_line": lambda p, unit, word: p.on_arrival(unit, word, False),
    "on_use_line": lambda p, unit, word: p.on_use(unit, word),
    "on_evict_line": lambda p, unit, word: p.on_evict(unit, word),
    "on_invalidate_line": lambda p, unit, word: p.on_invalidate(unit, word),
}


def active_rows(p: CacheLevelProfiler):
    """``{line_key: [pending handle or None] * 16}`` for every row that
    holds a pending handle.

    A row's pending handles are all of its future behaviour: a settled
    handle in a slot acts as an empty one in every event, so an emptied
    row, a dropped one and a fill's int row whose words were settled
    one by one all look the same.
    """
    cat = p._cat
    view = {}
    for key, row in p._active.items():
        if type(row) is int:
            row = range(row, row + 16)
        slots = [handle if handle >= 0 and cat[handle] == PENDING else None
                 for handle in row]
        if any(handle is not None for handle in slots):
            view[key] = slots
    return view


def row_forms_ok(p: CacheLevelProfiler) -> bool:
    """Every active row is a fill's first handle (an int) or a 16-slot
    ``array('q')``."""
    return all(type(row) is int and row >= 0
               or type(row) is array and row.typecode == "q"
               and len(row) == 16 for row in p._active.values())


def pending_by_addr(p: MemoryProfiler):
    """``{addr: set of pending handles}`` over the pending index: the
    array entries and the side dict's sets.  A settled handle left in
    the index acts as an empty entry, so it is skipped, as
    ``active_rows`` skips a row's settled handles."""
    cat = p._cat
    view = {addr: {handle}
            for addr, handle in enumerate(p._pending_by_addr)
            if handle >= 0 and cat[handle] == PENDING}
    for addr, handles in p._spill.items():
        pending = {handle for handle in handles if cat[handle] == PENDING}
        if pending:
            view[addr] = pending
    return view


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
        ledger = T.TrafficLedger(pools)
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
        for mask in (1, 0xFFFF):
            with pytest.raises(RuntimeError):
                p.on_invalidate_mask(3, 96, mask)

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

    def test_refetch_after_settle_reuses_the_array_entry(self):
        """A settled handle left in the index acts as an empty entry:
        the next instance of its address overwrites it in the array and
        never goes to the side dict, for a word and for a line."""
        p = MemoryProfiler(WastePools(), span=32)
        a = p.fetch(7, l2_has_addr=False)
        p.on_load(a)
        assert p._pending_by_addr[7] == a
        b = p.fetch(7, l2_has_addr=False)
        assert p._pending_by_addr[7] == b
        # One earlier fill's 16 handles, all settled: one slice store.
        line = p.fetch_line(16)
        p.install_copies(line)
        p.drop_copies(line, invalidated=False)
        again = p.fetch_line(16)
        assert list(p._pending_by_addr[16:32]) == list(again)
        # A line whose one word is still pending spills that word only.
        p.install_copies(again)
        p.drop_copies(again[1:], invalidated=True)
        third = p.fetch_line(16)
        assert p._spill == {16: {again[0], third[0]}}
        assert list(p._pending_by_addr[17:32]) == list(third[1:])
        p.on_store_addr(7)
        p.on_store_addr(16)
        assert p.category(a) is Category.USED
        assert p.category(b) is Category.WRITE
        assert p.category(again[0]) is p.category(third[0]) is Category.WRITE
        assert p.count(Category.WRITE) == 3

    def test_line_fill_keeps_a_pending_word_among_settled_ones(self):
        """Sixteen consecutive settled handles in a line's first entry
        are no slice-store licence unless they fill the whole line."""
        p = MemoryProfiler(WastePools(), span=64)
        kept = p.fetch(3, l2_has_addr=False)
        for addr in [0] + list(range(32, 47)):
            p.on_load(p.fetch(addr, l2_has_addr=False))
        line = p.fetch_line(0)
        assert p._spill == {3: {kept, line[3]}}
        p.on_store_addr(3)
        assert p.category(kept) is p.category(line[3]) is Category.WRITE

    @pytest.mark.parametrize("addr", [5, 40])   # in, beyond the span
    def test_spill_set_drops_settled_handles_when_indexed(self, addr):
        """Settling leaves a spill set as it is; the next instance of its
        address drops the settled handles, and an in-span set left with
        none goes back to the array entry."""
        p = MemoryProfiler(WastePools(), span=32)
        a, b, c = (p.fetch(addr, l2_has_addr=False) for _ in range(3))
        assert p._spill == {addr: {a, b, c}}
        p.on_load(a)
        assert p._spill == {addr: {a, b, c}}
        d = p.fetch(addr, l2_has_addr=False)
        assert p._spill == {addr: {b, c, d}}
        for handle in (b, c, d):
            p.on_load(handle)
        e = p.fetch(addr, l2_has_addr=False)
        if addr < 32:
            assert p._spill == {}
            assert p._pending_by_addr[addr] == e
        else:
            assert p._spill == {addr: {e}}
        p.on_store_addr(addr)
        assert p.category(e) is Category.WRITE
        assert p.count(Category.WRITE) == 1
        assert p.count(Category.USED) == 4

    def test_installing_past_255_copies_raises(self):
        """A copy count is one byte; the scalar call, a list and a
        fill's range all raise rather than wrap, and change nothing."""
        p = MemoryProfiler()
        line = p.fetch_line(0)
        for _ in range(254):
            p.install_copies(line)
        p.install_copy(line[3])
        with pytest.raises(ValueError):
            p.install_copy(line[3])
        with pytest.raises(ValueError):
            p.install_copies([line[3]])
        # One full count stops the whole line.
        with pytest.raises(ValueError):
            p.install_copies(line)
        assert list(p.pools.mem_refs) == [254] * 3 + [255] + [254] * 12
        p.install_copies(line[4:])
        assert list(p.pools.mem_refs) == [254] * 3 + [255] * 13

    def test_dropping_a_copy_never_installed_raises(self):
        """The scalar call, a list and a fill's range all raise rather
        than count below zero, and settle nothing."""
        p = MemoryProfiler()
        line = p.fetch_line(0)
        with pytest.raises(ValueError):
            p.drop_copy(line[0], invalidated=False)
        with pytest.raises(ValueError):
            p.drop_copies([line[0]], invalidated=True)
        p.install_copies(line[1:])
        # One word without a copy stops the whole line.
        with pytest.raises(ValueError):
            p.drop_copies(line, invalidated=False)
        assert list(p.pools.mem_refs) == [0] + [1] * 15
        assert all(p.category(handle) is None for handle in line)
        p.drop_copies(line[1:], invalidated=True)
        assert p.count(Category.INVALIDATE) == 15
        assert p.category(line[0]) is None

    def test_line_drop_settles_only_words_that_lose_their_last_copy(self):
        p = MemoryProfiler()
        line = p.fetch_line(0)
        p.install_copies(line)
        p.install_copies(line)
        p.on_load(line[1])
        p.drop_copy(line[2], invalidated=False)
        p.drop_copies(line, invalidated=True)
        assert p.category(line[0]) is None
        assert p.category(line[1]) is Category.USED
        assert p.category(line[2]) is Category.INVALIDATE
        assert p.count(Category.INVALIDATE) == 1
        p.drop_copies(line[3:], invalidated=False)
        assert p.count(Category.EVICT) == 13
        assert list(p.pools.mem_refs) == [1, 1] + [0] * 14

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
    """One ledger and one profiler per level count the whole run;
    ``SimContext.mark_window()`` opens the measurement window without
    replacing any of them."""

    def test_handle_settled_after_reset_counts_in_live_window(self):
        from repro.common.config import SystemConfig, protocol
        from repro.common.regions import RegionTable
        from repro.core.context import SimContext

        ctx = SimContext(SystemConfig(num_tiles=4), protocol("MESI"),
                         RegionTable())
        objects = (ctx.ledger, ctx.l1_prof, ctx.l2_prof, ctx.mem_prof)
        inst = ctx.mem_prof.fetch(100, l2_has_addr=False)
        ctx.mem_prof.install_copy(inst)
        used = ctx.l1_prof.on_arrival(0, 100, already_present=False)
        ctx.l1_prof.on_use(0, 100)
        pending = ctx.l1_prof.on_arrival(0, 200, already_present=False)
        late = ctx.l1_prof.on_arrival(0, 300, already_present=False)

        ctx.mark_window()
        assert all(now is then for now, then in zip(
            (ctx.ledger, ctx.l1_prof, ctx.l2_prof, ctx.mem_prof), objects))
        # A warm-up memory instance settled after the mark is counted in
        # the window (ROADMAP item 2's over-count).
        ctx.mem_prof.on_load(inst)
        assert ctx.mem_prof.count(Category.USED) == 1
        assert ctx.mem_prof.category(inst) is Category.USED
        # A warm-up cache word keeps its active row, so it may still be
        # settled, but the window never counts it.
        ctx.l1_prof.on_use(0, 300)
        assert ctx.l1_prof.category(late) is Category.USED
        assert ctx.l1_prof.count(Category.USED) == 0
        assert ctx.l1_prof.total_words() == 0

        # The ledger resolves warm-up handles through the pool.
        assert pending == used + 1
        ctx.ledger.add_data_words(T.LD, T.DEST_L1, 2,
                                  range(used, pending + 1))
        ctx.finalize()
        assert ctx.l1_prof.category(pending) is Category.UNEVICTED
        assert sum(ctx.l1_prof.counts().values()) == 0
        assert sum(ctx.mem_prof.counts().values()) == 1
        assert ctx.mem_prof.total_words() == 0
        assert ctx.ledger.bucket(T.LD, T.RESP_L1_USED) == 0.5
        assert ctx.ledger.bucket(T.LD, T.RESP_L1_WASTE) == 0.5

    @staticmethod
    def _context_with_pending_warmup_instance(addr: int):
        """A context over one 256-word region whose warm-up left a
        memory instance at ``addr`` pending with one on-chip copy."""
        from repro.common.config import SystemConfig, protocol
        from repro.common.regions import Region, RegionTable
        from repro.core.context import SimContext

        ctx = SimContext(SystemConfig(num_tiles=4), protocol("MESI"),
                         RegionTable([Region(0, "data", 0, 256)]))
        assert len(ctx.mem_prof._pending_by_addr) == 256
        inst = ctx.mem_prof.fetch(addr, l2_has_addr=False)
        ctx.mem_prof.install_copy(inst)
        ctx.mark_window()
        assert len(ctx.mem_prof._pending_by_addr) == 256
        assert pending_by_addr(ctx.mem_prof) == {addr: {inst}}
        return ctx, inst

    # Only window instances are settled by a store or counted Unevicted.
    # Pinned as the current behaviour (ROADMAP item 2): a fidelity fix
    # that changes it must re-pin these cases on purpose.
    @pytest.mark.parametrize("addr", [100, 300])   # in, beyond the span
    def test_store_after_reset_leaves_warmup_instance_pending(self, addr):
        ctx, inst = self._context_with_pending_warmup_instance(addr)
        ctx.mem_prof.on_store_addr(addr)
        assert ctx.mem_prof.category(inst) is None
        assert ctx.mem_prof.count(Category.WRITE) == 0
        assert pending_by_addr(ctx.mem_prof) == {}
        # Its last copy leaving counts it Evict, not Write; settling an
        # instance the index no longer holds leaves the index as it was.
        ctx.mem_prof.drop_copy(inst, invalidated=False)
        assert ctx.mem_prof.category(inst) is Category.EVICT
        assert ctx.mem_prof.count(Category.EVICT) == 1
        assert pending_by_addr(ctx.mem_prof) == {}

    @pytest.mark.parametrize("addr", [100, 300])
    def test_unsettled_warmup_instance_is_never_unevicted(self, addr):
        ctx, inst = self._context_with_pending_warmup_instance(addr)
        live = ctx.mem_prof.fetch(addr, l2_has_addr=False)
        assert pending_by_addr(ctx.mem_prof) == {addr: {inst, live}}
        ctx.finalize()
        assert ctx.mem_prof.category(live) is Category.UNEVICTED
        assert ctx.mem_prof.category(inst) is None
        assert ctx.mem_prof.count(Category.UNEVICTED) == 1


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
        return (list(p.pools.l1_cat), p.counts(), p.total_words(),
                active_rows(p))

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("bulk, scalar", list(_SCALAR_OF_LINE.items()))
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
                p.counts(), p.total_words(), pending_by_addr(p))

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
    @pytest.mark.parametrize("mask", [0, 1 << 9, 0b1010000000100110, 0xFFFF])
    def test_on_invalidate_mask(self, older, mask):
        for fill in (False, True):
            bulk_p = self._cache_profiler(older)
            scalar_p = self._cache_profiler(older)
            if fill:
                # A fill's int row, one of its words already settled.
                for p in (bulk_p, scalar_p):
                    p.arrivals_line(self.UNIT, self.BASE)
                    p.on_use(self.UNIT, self.BASE + 5)
            bulk_p.on_invalidate_mask(self.UNIT, self.BASE, mask)
            for off in range(16):
                if mask >> off & 1:
                    scalar_p.on_invalidate(self.UNIT, self.BASE + off)
            assert self._cache_state(bulk_p) == self._cache_state(scalar_p)
            for p in (bulk_p, scalar_p):
                p.on_arrival(self.UNIT, self.BASE + 9, already_present=False)
                p.finalize()
            assert self._cache_state(bulk_p) == self._cache_state(scalar_p)

    @MODEL_SETTINGS
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(["arrivals_line", "on_use_line",
                                   "on_evict_line", "on_invalidate_line"]),
                  st.integers(0, 1)),
        st.tuples(st.just("on_invalidate_mask"), st.integers(0, 1),
                  st.integers(0, 0xFFFF)),
        st.tuples(st.sampled_from(["on_arrival", "on_use", "on_write",
                                   "on_evict", "on_invalidate"]),
                  st.integers(0, 1), st.integers(0, 15), st.booleans()),
        st.tuples(st.just("arrivals_words"), st.integers(0, 1),
                  st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                           max_size=5)),
        st.tuples(st.just("on_use_words"), st.integers(0, 1),
                  st.lists(st.integers(0, 15), max_size=5)),
        st.tuples(st.just("finalize"))), max_size=25))
    def test_range_rows(self, ops):
        """Single-word events mixed into a fill's int row, and the
        row's settles, against the scalar events alone."""
        bulk_p = self._cache_profiler(older=True)
        scalar_p = self._cache_profiler(older=True)
        base = self.BASE
        for name, *args in [("arrivals_line", 0)] + ops:
            if name == "finalize":
                bulk_p.finalize()
                scalar_p.finalize()
                continue
            unit = self.UNIT + args[0]
            if name in _SCALAR_OF_LINE:
                got = getattr(bulk_p, name)(unit, base)
                want = [_SCALAR_OF_LINE[name](scalar_p, unit, word)
                        for word in range(base, base + 16)]
                if name == "arrivals_line":
                    assert list(got) == want
            elif name == "on_invalidate_mask":
                bulk_p.on_invalidate_mask(unit, base, args[1])
                for off in range(16):
                    if args[1] >> off & 1:
                        scalar_p.on_invalidate(unit, base + off)
            elif name == "arrivals_words":
                words = [base + off for off, _ in args[1]]
                flags = [flag for _, flag in args[1]]
                got = bulk_p.arrivals_words(unit, words, flags)
                assert list(got) == [scalar_p.on_arrival(unit, word, flag)
                                     for word, flag in zip(words, flags)]
            elif name == "on_use_words":
                words = [base + off for off in args[1]]
                bulk_p.on_use_words(unit, words)
                for word in words:
                    scalar_p.on_use(unit, word)
            else:
                word = base + args[1]
                extra = [args[2]] if name == "on_arrival" else []
                assert (getattr(bulk_p, name)(unit, word, *extra)
                        == getattr(scalar_p, name)(unit, word, *extra))
            assert self._cache_state(bulk_p) == self._cache_state(scalar_p)
            assert row_forms_ok(bulk_p)
        for p in (bulk_p, scalar_p):
            p.finalize()
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


# -- reference models ---------------------------------------------------
# Dict-of-sets versions of the two FSMs, written for clarity, not speed:
# random op sequences must leave the array-backed profilers with the
# same verdicts, window counts and pending state.  A window mark makes
# the models count afresh; the memory model indexes every pending
# instance but lets a store or the final sweep settle only the window's
# (ROADMAP item 2's rule), and the cache model counts each verdict of a
# window handle as it lands, where the profiler counts a histogram.

SPAN = 64               # words the memory index covers (four lines)
FAR = 2**31 - 16        # last line base a 32-bit word address allows


class MemoryModel:
    def __init__(self) -> None:
        self.cat, self.refs, self.addr = [], [], []
        self.pending = {}
        self.mark()

    def mark(self) -> None:
        self.start, self.counts, self.total = len(self.cat), {}, 0

    def _new(self, addr, code) -> int:
        self.cat.append(code)
        self.refs.append(0)
        self.addr.append(addr)
        self.total += 1
        if code:
            self.counts[code] = self.counts.get(code, 0) + 1
        else:
            self.pending.setdefault(addr, set()).add(len(self.cat) - 1)
        return len(self.cat) - 1

    def _settle(self, handle, code) -> None:
        addr = self.addr[handle]
        pending = self.pending.get(addr, set())
        pending.discard(handle)
        if not pending:
            self.pending.pop(addr, None)
        self.cat[handle] = code
        self.counts[code] = self.counts.get(code, 0) + 1

    def fetch(self, addr, present):
        return self._new(addr, C_FETCH if present else 0)

    def fetch_excess(self, addr):
        return self._new(addr, C_EXCESS)

    def fetch_line(self, base):
        return [self.fetch(addr, False) for addr in range(base, base + 16)]

    # A copy count is one byte: a call that would take it past 255 or
    # below 0 raises and changes nothing.  A list of handles is the
    # calls in turn; a fill's range checks every count first.
    def install_copy(self, handle):
        if self.refs[handle] == 255:
            raise ValueError("past 255 copies")
        self.refs[handle] += 1

    def drop_copy(self, handle, invalidated):
        if self.refs[handle] == 0:
            raise ValueError("no copy to drop")
        self.refs[handle] -= 1
        if self.refs[handle] == 0 and self.cat[handle] == 0:
            self._settle(handle, C_INVALIDATE if invalidated else C_EVICT)

    def install_copies(self, handles):
        if type(handles) is range and 255 in self.refs[handles.start:
                                                         handles.stop]:
            raise ValueError("past 255 copies")
        for handle in handles:
            if handle is not None:
                self.install_copy(handle)

    def drop_copies(self, handles, invalidated):
        if type(handles) is range and 0 in self.refs[handles.start:
                                                       handles.stop]:
            raise ValueError("no copy to drop")
        for handle in handles:
            if handle is not None:
                self.drop_copy(handle, invalidated)

    def on_load(self, handle):
        if self.cat[handle] == 0:
            self._settle(handle, C_USED)

    def on_store_addr(self, addr):
        for handle in self.pending.pop(addr, ()):
            if handle >= self.start:
                self.cat[handle] = C_WRITE
                self.counts[C_WRITE] = self.counts.get(C_WRITE, 0) + 1

    def finalize(self):
        for handles in self.pending.values():
            for handle in handles:
                if handle >= self.start:
                    self.cat[handle] = C_UNEVICTED
                    self.counts[C_UNEVICTED] = (
                        self.counts.get(C_UNEVICTED, 0) + 1)
        self.pending = {}


class CacheModel:
    def __init__(self) -> None:
        self.cat, self.active = [], {}
        self.mark()

    def mark(self) -> None:
        self.start, self.counts, self.total = len(self.cat), {}, 0

    def _settle(self, handle, code) -> None:
        if handle is not None and self.cat[handle] == 0:
            self.cat[handle] = code
            if handle >= self.start:
                self.counts[code] = self.counts.get(code, 0) + 1

    def on_arrival(self, unit, word, present):
        self.total += 1
        self.cat.append(C_FETCH if present else 0)
        handle = len(self.cat) - 1
        if present:
            self.counts[C_FETCH] = self.counts.get(C_FETCH, 0) + 1
        else:
            self._settle(self.active.get((unit, word)), C_FETCH)
            self.active[unit, word] = handle
        return handle

    def on_use(self, unit, word):
        self._settle(self.active.get((unit, word)), C_USED)

    def on_write(self, unit, word):
        self._settle(self.active.get((unit, word)), C_WRITE)

    def on_evict(self, unit, word):
        self._settle(self.active.pop((unit, word), None), C_EVICT)

    def on_invalidate(self, unit, word):
        self._settle(self.active.pop((unit, word), None), C_INVALIDATE)

    def finalize(self):
        for handle in self.active.values():
            self._settle(handle, C_UNEVICTED)
        self.active = {}

    def rows(self):
        """The active handles still pending, as ``active_rows`` shows
        a profiler's."""
        view = {}
        for (unit, word), handle in self.active.items():
            if self.cat[handle] == 0:
                row = view.setdefault(((word >> 4) << 6) | unit,
                                      [None] * 16)
                row[word & 15] = handle
        return view


# Most addresses come from a few words, so one address often holds
# several pending instances, in the span and beyond it.
_mem_addr = st.sampled_from((3, SPAN - 1, SPAN + 1, FAR + 3))
_any_addr = st.integers(0, SPAN + 31) | st.integers(FAR, FAR + 15)
_mem_line = st.sampled_from((0, 16, SPAN - 16, SPAN, FAR))
_pick = st.integers(0, 2**16)          # an existing handle, modulo
_mem_ops = st.lists(st.one_of(
    st.tuples(st.just("fetch"), _mem_addr, st.just(False)),
    st.tuples(st.just("fetch"), _mem_addr, st.just(False)),
    st.tuples(st.just("fetch"), _any_addr, st.booleans()),
    st.tuples(st.just("fetch_excess"), _mem_addr),
    st.tuples(st.just("fetch_line"), _mem_line),
    st.tuples(st.just("install_copy"), _pick),
    st.tuples(st.just("install_copies"), st.lists(_pick, max_size=4)),
    st.tuples(st.just("drop_copy"), _pick, st.booleans()),
    st.tuples(st.just("drop_copies"), st.lists(_pick, max_size=4),
              st.booleans()),
    # A fill's range: one that fetch_line returned, or any 16 handles.
    st.tuples(st.just("install_line"), _pick, st.booleans()),
    st.tuples(st.just("install_line"), _pick, st.booleans()),
    st.tuples(st.just("drop_line"), _pick, st.booleans(), st.booleans()),
    st.tuples(st.just("on_load"), _pick),
    st.tuples(st.just("on_store_addr"), _mem_addr),
    st.tuples(st.just("on_store_addr"), _any_addr),
    st.tuples(st.just("mark")),
), min_size=20, max_size=80)

_unit = st.integers(0, 2)
_word = st.integers(0, 47)              # three lines
_cache_line = st.sampled_from((0, 16, 32))
_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("on_arrival"), _unit, _word, st.booleans()),
    st.tuples(st.sampled_from(["on_use", "on_write", "on_evict",
                               "on_invalidate"]), _unit, _word),
    st.tuples(st.sampled_from(["arrivals_line", "on_use_line",
                               "on_evict_line", "on_invalidate_line"]),
              _unit, _cache_line),
    st.tuples(st.just("on_invalidate_mask"), _unit, _cache_line,
              st.integers(0, 0xFFFF)),
    st.tuples(st.just("arrivals_words"), _unit,
              st.lists(st.tuples(_word, st.booleans()), max_size=6)),
    st.tuples(st.just("on_use_words"), _unit, st.lists(_word, max_size=6)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("finalize")),
), min_size=20, max_size=60)



class TestReferenceModel:
    """The array-backed profilers behave as the dict-of-sets models.

    Return values are compared after every op; the whole state (pools,
    window counts, pending index or active rows) at each mark and at
    the end."""

    @staticmethod
    def _check_memory(p: MemoryProfiler, m: MemoryModel) -> None:
        assert list(p.pools.mem_cat) == m.cat
        assert list(p.pools.mem_refs) == m.refs
        assert p.total_words() == m.total
        assert {cat: n for cat, n in p.counts().items() if n} == {
            _BY_CODE[code]: n for code, n in m.counts.items()}
        assert pending_by_addr(p) == m.pending
        # An address in the span is in the side dict only while its
        # array entry is the spill marker, and the other way round.
        for addr, entry in enumerate(p._pending_by_addr):
            assert (addr in p._spill) == (entry < NO_HANDLE)

    @staticmethod
    def _same_or_both_raise(call, model_call) -> None:
        """Run one copy-count op on the profiler and on the model: the
        model raising ``ValueError`` means the profiler must too."""
        try:
            model_call()
        except ValueError:
            with pytest.raises(ValueError):
                call()
        else:
            call()

    @MODEL_SETTINGS
    @given(_mem_ops)
    def test_memory_profiler(self, ops):
        p, m = MemoryProfiler(WastePools(), SPAN), MemoryModel()
        both = self._same_or_both_raise
        lines = []
        for name, *args in ops:
            if name == "mark":
                self._check_memory(p, m)
                p.mark()
                m.mark()
            elif name in ("fetch", "fetch_excess", "fetch_line",
                          "on_store_addr"):
                got = getattr(p, name)(*args)
                want = getattr(m, name)(*args)
                if name == "fetch_line":
                    assert list(got) == want
                    lines.append(got)
                else:
                    assert got == want
            elif name in ("install_line", "drop_line"):
                pick, fetched, *invalidated = args
                if fetched and lines:
                    line = lines[pick % len(lines)]
                elif len(m.cat) >= 16:
                    start = pick % (len(m.cat) - 15)
                    line = range(start, start + 16)
                else:
                    continue
                if name == "install_line":
                    both(lambda: p.install_copies(line),
                         lambda: m.install_copies(line))
                else:
                    both(lambda: p.drop_copies(
                        line, invalidated=invalidated[0]),
                         lambda: m.drop_copies(line, invalidated[0]))
            elif m.cat:
                picks = [i % len(m.cat) for i in
                         (args[0] if isinstance(args[0], list) else [args[0]])]
                if name == "on_load":
                    p.on_load(picks[0])
                    m.on_load(picks[0])
                elif name == "install_copy":
                    both(lambda: p.install_copy(picks[0]),
                         lambda: m.install_copy(picks[0]))
                elif name == "drop_copy":
                    both(lambda: p.drop_copy(picks[0], invalidated=args[1]),
                         lambda: m.drop_copy(picks[0], args[1]))
                else:
                    # Bulk calls skip None slots (locally written words).
                    handles = [h if i % 5 else None
                               for h, i in zip(picks, args[0])]
                    if name == "install_copies":
                        both(lambda: p.install_copies(handles),
                             lambda: m.install_copies(handles))
                    else:
                        both(lambda: p.drop_copies(
                            handles, invalidated=args[1]),
                             lambda: m.drop_copies(handles, args[1]))
            # The index never grows to fit an address past the span.
            assert len(p._pending_by_addr) == SPAN
        self._check_memory(p, m)
        p.finalize()
        m.finalize()
        self._check_memory(p, m)

    @MODEL_SETTINGS
    @given(st.sampled_from(["L1", "L2"]), _cache_ops)
    def test_cache_profiler(self, level, ops):
        p, m = CacheLevelProfiler(level), CacheModel()
        for name, *args in ops:
            if name.startswith("on_invalidate") and level == "L2":
                continue
            if name in _SCALAR_OF_LINE:
                unit, base = args
                got = getattr(p, name)(unit, base)
                want = [_SCALAR_OF_LINE[name](m, unit, word)
                        for word in range(base, base + 16)]
                if name == "arrivals_line":
                    assert list(got) == want
            elif name == "arrivals_words":
                unit, pairs = args
                got = p.arrivals_words(unit, [word for word, _ in pairs],
                                       [flag for _, flag in pairs])
                assert list(got) == [m.on_arrival(unit, word, flag)
                                     for word, flag in pairs]
            elif name == "on_use_words":
                p.on_use_words(*args)
                for word in args[1]:
                    m.on_use(args[0], word)
            elif name == "on_invalidate_mask":
                unit, base, mask = args
                p.on_invalidate_mask(unit, base, mask)
                for off in range(16):
                    if mask >> off & 1:
                        m.on_invalidate(unit, base + off)
            else:
                assert getattr(p, name)(*args) == getattr(m, name)(*args)
        assert list(getattr(p.pools, f"{level.lower()}_cat")) == m.cat
        assert p.total_words() == m.total
        assert {cat: n for cat, n in p.counts().items() if n} == {
            _BY_CODE[code]: n for code, n in m.counts.items()}
        # Each slot's still-pending handle, whatever the row's form.
        assert active_rows(p) == m.rows()
        assert row_forms_ok(p)
