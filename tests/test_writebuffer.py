"""Unit tests for the store buffer and write-combining table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.writebuffer import StoreBuffer, WriteCombineTable
from repro.common.addressing import WORDS_PER_LINE


class TestStoreBuffer:
    def test_insert_retire(self):
        sb = StoreBuffer(2)
        sb.insert(10)
        assert sb.has(10) and len(sb) == 1
        sb.retire(10)
        assert not sb.has(10) and len(sb) == 0

    def test_full(self):
        sb = StoreBuffer(2)
        sb.insert(1)
        sb.insert(2)
        assert sb.is_full()
        with pytest.raises(RuntimeError):
            sb.insert(3)

    def test_retire_absent_is_noop(self):
        sb = StoreBuffer(2)
        sb.retire(99)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)


class TestWriteCombineTable:
    def test_combines_same_line(self):
        wct = WriteCombineTable(capacity=4, timeout=100)
        wct.add_store(16, now=0)   # line 1, offset 0
        wct.add_store(17, now=0)   # line 1, offset 1
        assert len(wct) == 1
        entry = wct.get(1)
        assert entry.offsets() == [0, 1]

    def test_different_lines_different_entries(self):
        wct = WriteCombineTable(4, 100)
        wct.add_store(0, now=0)
        wct.add_store(16, now=0)
        assert len(wct) == 2

    def test_full_line_detection(self):
        wct = WriteCombineTable(4, 100)
        for off in range(WORDS_PER_LINE):
            entry = wct.add_store(32 + off, now=0)
        assert entry.is_full_line

    def test_overflow_requires_flush(self):
        wct = WriteCombineTable(2, 100)
        wct.add_store(0, now=0)
        wct.add_store(16, now=0)
        assert wct.is_full()
        with pytest.raises(RuntimeError):
            wct.add_store(32, now=0)
        # Existing lines still accept words when full.
        wct.add_store(1, now=0)

    def test_oldest(self):
        wct = WriteCombineTable(4, 100)
        wct.add_store(16, now=5)
        wct.add_store(0, now=2)
        assert wct.oldest().line_addr == 0

        # In-order inserts (one core's stores): the oldest stays right
        # through pops (a tie goes to the first inserted) and a drain.
        wct = WriteCombineTable(4, 100)
        for line_addr, now in ((4, 1), (2, 3), (3, 3), (1, 7)):
            wct.add_store(line_addr * WORDS_PER_LINE, now=now)
        assert wct.oldest().line_addr == 4
        wct.pop(4)
        assert wct.oldest().line_addr == 2
        wct.pop(2)
        assert wct.oldest().line_addr == 3
        assert len(wct.drain()) == 2
        assert wct.oldest() is None
        wct.add_store(5 * WORDS_PER_LINE, now=0)
        assert wct.oldest().line_addr == 5

    def test_expiry(self):
        wct = WriteCombineTable(4, timeout=100)
        wct.add_store(0, now=0)
        wct.add_store(16, now=50)
        assert wct.expired(now=99) == []
        expired = wct.expired(now=100)
        assert [e.line_addr for e in expired] == [0]
        assert len(wct) == 1

    def test_next_deadline(self):
        wct = WriteCombineTable(4, timeout=100)
        assert wct.next_deadline() is None
        wct.add_store(0, now=30)
        wct.add_store(16, now=10)
        assert wct.next_deadline() == 110

        # In-order inserts, then pops and a drain.
        wct = WriteCombineTable(4, timeout=100)
        for line_addr, now in ((0, 10), (1, 20), (2, 20)):
            wct.add_store(line_addr * WORDS_PER_LINE, now=now)
        assert wct.next_deadline() == 110
        wct.pop(0)
        assert wct.next_deadline() == 120
        wct.pop(1)
        assert wct.next_deadline() == 120
        wct.drain()
        assert wct.next_deadline() is None
        wct.add_store(0, now=5)
        assert wct.next_deadline() == 105

    def test_drain(self):
        wct = WriteCombineTable(4, 100)
        wct.add_store(0, now=0)
        wct.add_store(16, now=0)
        drained = wct.drain()
        assert len(drained) == 2 and len(wct) == 0

    def test_pop(self):
        wct = WriteCombineTable(4, 100)
        wct.add_store(0, now=0)
        entry = wct.pop(0)
        assert entry.line_addr == 0
        assert wct.pop(0) is None

    def test_timeout_clock_does_not_reset_on_new_word(self):
        """The paper's 10k-cycle timeout runs from entry creation."""
        wct = WriteCombineTable(4, timeout=100)
        wct.add_store(0, now=0)
        wct.add_store(1, now=90)    # same line, later word
        assert [e.line_addr for e in wct.expired(now=100)] == [0]


class TestOldestProperty:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["add", "pop", "drain"]),
                              st.integers(min_value=0, max_value=7),
                              st.integers(min_value=0, max_value=40)),
                    max_size=80))
    def test_oldest_matches_min_scan(self, ops):
        """``oldest``/``next_deadline`` equal a scan for the minimum,
        in or out of time order."""
        wct = WriteCombineTable(4, timeout=100)
        created = {}
        for op, line_addr, now in ops:
            if op == "add" and (wct.has(line_addr) or not wct.is_full()):
                wct.add_store(line_addr * WORDS_PER_LINE, now=now)
                created.setdefault(line_addr, now)
            elif op == "pop":
                wct.pop(line_addr)
                created.pop(line_addr, None)
            elif op == "drain":
                wct.drain()
                created.clear()
            if not created:
                assert wct.oldest() is None
                assert wct.next_deadline() is None
                continue
            # min() keeps the first of equal keys: insertion order.
            expected = min(created, key=created.get)
            assert wct.oldest().line_addr == expected
            assert wct.next_deadline() == created[expected] + 100
