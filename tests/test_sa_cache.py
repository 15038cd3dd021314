"""Unit tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.sa_cache import CacheLine, SetAssocCache


class TestBasics:
    def test_miss_then_hit(self):
        c = SetAssocCache(num_sets=4, assoc=2)
        assert c.lookup(10) is None
        line, victim = c.allocate(10)
        assert victim is None
        assert c.lookup(10) is line

    def test_set_index(self):
        c = SetAssocCache(num_sets=4, assoc=2)
        assert c.set_index(10) == 2
        assert c.set_index(14) == 2

    def test_lru_eviction(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        c.allocate(0)
        c.allocate(1)
        c.lookup(0)           # 0 becomes MRU
        _line, victim = c.allocate(2)
        assert victim.line_addr == 1

    def test_lookup_without_touch_keeps_lru(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        c.allocate(0)
        c.allocate(1)
        c.lookup(0, touch=False)   # 0 stays LRU
        _line, victim = c.allocate(2)
        assert victim.line_addr == 0

    def test_allocate_existing_refreshes(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        first, _ = c.allocate(0)
        c.allocate(1)
        again, victim = c.allocate(0)
        assert again is first and victim is None
        _line, victim = c.allocate(2)
        assert victim.line_addr == 1

    def test_victim_for(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        c.allocate(0)
        assert c.victim_for(1) is None      # free way
        c.allocate(1)
        assert c.victim_for(2).line_addr == 0
        assert c.victim_for(0) is None      # already resident

    def test_remove(self):
        c = SetAssocCache(num_sets=2, assoc=2)
        c.allocate(0)
        removed = c.remove(0)
        assert removed.line_addr == 0
        assert c.lookup(0) is None
        assert c.remove(0) is None

    def test_occupancy_and_resident(self):
        c = SetAssocCache(num_sets=2, assoc=2)
        for addr in (0, 1, 2):
            c.allocate(addr)
        assert c.occupancy() == 3
        assert {l.line_addr for l in c.resident_lines()} == {0, 1, 2}

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(num_sets=0, assoc=1)

    def test_custom_line_factory(self):
        class MyLine(CacheLine):
            __slots__ = ("extra",)

            def __init__(self, line_addr):
                super().__init__(line_addr)
                self.extra = 42

        c = SetAssocCache(1, 1, MyLine)
        line, _ = c.allocate(7)
        assert line.extra == 42


class TestCanClaim:
    def test_result_and_probes(self):
        c = SetAssocCache(num_sets=4, assoc=2)
        for addr in (1, 5, 2):
            c.allocate(addr)            # set 1 holds 1 and 5; set 2 holds 2
        c.stat_probes = 0
        # Resident: one probe, the pinned lines are not examined.
        assert c.can_claim(5, {1, 2, 9})
        assert c.stat_probes == 1
        c.stat_probes = 0
        # Set 1 is full of pinned lines: one probe for 9, one for each
        # pinned line of set 1 (2 lives in set 2 and costs nothing).
        assert not c.can_claim(9, {1, 5, 2})
        assert c.stat_probes == 3
        c.stat_probes = 0
        # 13 maps to set 1 but is not resident: probed, not counted.
        assert c.can_claim(9, {1, 13, 2})
        assert c.stat_probes == 3
        c.stat_probes = 0
        assert c.can_claim(9, set())
        assert c.stat_probes == 1

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=30),
           st.sets(st.integers(min_value=0, max_value=40), max_size=10),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2))
    def test_matches_lookup_reference(self, addrs, pinned, line_addr,
                                      shift):
        """Same answer and probes as one ``lookup`` of the line plus one
        per pinned line in its set."""
        c = SetAssocCache(4, 2, index_shift=shift)
        for addr in addrs:
            c.allocate(addr)
        c.stat_probes = 0
        if c.lookup(line_addr, touch=False) is not None:
            expected = True
        else:
            idx = c.set_index(line_addr)
            held = sum(1 for la in pinned if c.set_index(la) == idx
                       and c.lookup(la, touch=False) is not None)
            expected = held < c.assoc
        reference_probes = c.stat_probes
        c.stat_probes = 0
        assert c.can_claim(line_addr, pinned) is expected
        assert c.stat_probes == reference_probes


class TestCacheLine:
    def test_fresh_line_state(self):
        line = CacheLine(5)
        assert not line.any_dirty()
        assert line.dirty_offsets() == []

    def test_dirty_tracking(self):
        line = CacheLine(5)
        line.word_dirty[3] = True
        line.word_dirty[7] = True
        assert line.any_dirty()
        assert line.dirty_offsets() == [3, 7]

    def test_reset_words(self):
        line = CacheLine(5)
        line.word_state[0] = 2
        line.word_dirty[0] = True
        line.mem_inst[0] = object()
        line.reset_words()
        assert line.word_state[0] == 0
        assert not line.word_dirty[0]
        assert line.mem_inst[0] is None


class TestCacheProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=300),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_occupancy_never_exceeds_capacity(self, addrs, sets, assoc):
        c = SetAssocCache(sets, assoc)
        for addr in addrs:
            c.allocate(addr)
        assert c.occupancy() <= sets * assoc
        for s in range(sets):
            in_set = [l for l in c.resident_lines()
                      if c.set_index(l.line_addr) == s]
            assert len(in_set) <= assoc

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=200))
    def test_most_recent_k_always_resident(self, addrs):
        """With a single set, the last `assoc` distinct addresses hit."""
        assoc = 4
        c = SetAssocCache(1, assoc)
        for addr in addrs:
            c.allocate(addr)
        distinct_recent = []
        for addr in reversed(addrs):
            if addr not in distinct_recent:
                distinct_recent.append(addr)
            if len(distinct_recent) == assoc:
                break
        for addr in distinct_recent:
            assert c.lookup(addr, touch=False) is not None

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=100))
    def test_victim_matches_allocate(self, addrs):
        """victim_for predicts what allocate evicts."""
        a = SetAssocCache(2, 2)
        b = SetAssocCache(2, 2)
        for addr in addrs:
            a.allocate(addr)
            predicted = b.victim_for(addr)
            _line, actual = b.allocate(addr)
            if predicted is None:
                assert actual is None
            else:
                assert actual is predicted
