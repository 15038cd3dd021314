"""Unit tests for the Bloom filter structures (paper Section 4.4)."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import filters
from repro.bloom.filters import (
    BloomFilter, CountingBloomFilter, H3Hash, L1FilterShadow,
    SliceFilterBank)
from repro.common.config import ScaleConfig, SystemConfig, protocol
from repro.core.system import System
from repro.workloads import build_workload

line_addrs = st.integers(min_value=0, max_value=2**34)


def h3(entries=512, seed=7):
    return H3Hash(entries, seed)


class TestH3Hash:
    def test_deterministic(self):
        h1 = H3Hash(512, seed=3)
        h2 = H3Hash(512, seed=3)
        for key in (0, 1, 12345, 2**30):
            assert h1(key) == h2(key)

    def test_in_range(self):
        h = H3Hash(100, seed=1)
        for key in range(1000):
            assert 0 <= h(key) < 100

    def test_different_seeds_differ(self):
        h1, h2 = H3Hash(512, 1), H3Hash(512, 2)
        diffs = sum(1 for k in range(200) if h1(k) != h2(k))
        assert diffs > 150

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            H3Hash(0, seed=1)


def xor_of_rows(rows, value):
    """The H3 definition: XOR of ``rows[i]`` for every set bit i."""
    acc = 0
    for i, row in enumerate(rows):
        if value >> i & 1:
            acc ^= row
    return acc


class TestH3Tables:
    """The byte tables and ``__call__`` against the per-bit definition."""

    SEEDS = (0, 1, 7, 1997, 16 * 1000 + 997)
    SIZES = (2, 128, 256, 512, 997)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_tables_match_per_bit_xor(self, seed):
        h = H3Hash(512, seed)
        assert len(h._byte_tables) == H3Hash.KEY_BITS // 8
        for b, table in enumerate(h._byte_tables):
            rows = h._rows[b * 8:(b + 1) * 8]
            assert type(table) is array and table.typecode == "I"
            assert tuple(table) == tuple(xor_of_rows(rows, v)
                                         for v in range(256))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_call_matches_per_bit_xor(self, seed, size):
        h = H3Hash(size, seed)
        rng = random.Random(seed * 31 + size)
        keys = [0, 1, 255, 256, 2**48 - 1, 0xA5A5A5A5A5A5, 1 << 47]
        keys += [0xFF << (8 * b) for b in range(6)]
        keys += [rng.getrandbits(48) | 1 << 40 for _ in range(200)]
        assert any(key >> 40 for key in keys)
        for key in keys:
            assert h(key) == xor_of_rows(h._rows, key) % size


class TestBloomFilter:
    def test_insert_query(self):
        f = BloomFilter(512, h3())
        f.insert(42)
        assert f.may_contain(42)

    def test_clear(self):
        f = BloomFilter(512, h3())
        f.insert(42)
        f.clear()
        assert not f.may_contain(42)

    def test_union_bits(self):
        src = CountingBloomFilter(512, h3())
        src.insert(42)
        dst = BloomFilter(512, h3())
        dst.union_bits(src.bit_projection())
        assert dst.may_contain(42)

    def test_union_size_mismatch(self):
        f = BloomFilter(512, h3())
        with pytest.raises(ValueError):
            f.union_bits([0] * 100)

    @settings(max_examples=30)
    @given(st.sets(line_addrs, min_size=1, max_size=100))
    def test_no_false_negatives(self, keys):
        f = BloomFilter(512, h3())
        for key in keys:
            f.insert(key)
        assert all(f.may_contain(key) for key in keys)


class TestCountingBloomFilter:
    def test_insert_remove(self):
        f = CountingBloomFilter(512, h3())
        f.insert(42)
        f.remove(42)
        assert not f.may_contain(42)

    def test_counting_survives_shared_removal(self):
        """Two inserts need two removals before the bit clears."""
        f = CountingBloomFilter(512, h3())
        f.insert(42)
        f.insert(42)
        f.remove(42)
        assert f.may_contain(42)
        f.remove(42)
        assert not f.may_contain(42)

    def test_bit_projection_is_one_bit_per_entry(self):
        f = CountingBloomFilter(512, h3())
        for _ in range(CountingBloomFilter.COUNTER_MAX + 10):
            f.insert(42)
        f.insert(7)
        projection = f.bit_projection()
        assert len(projection) == 512
        assert sum(projection) == 2
        assert list(projection) == [1 if c else 0 for c in f._counters]

    def test_remove_at_zero_is_safe(self):
        f = CountingBloomFilter(512, h3())
        f.remove(42)
        assert not f.may_contain(42)

    @settings(max_examples=20)
    @given(st.sets(line_addrs, min_size=2, max_size=60))
    def test_removal_keeps_other_keys(self, keys):
        f = CountingBloomFilter(1024, h3(1024))
        keys = sorted(keys)
        for key in keys:
            f.insert(key)
        f.remove(keys[0])
        for key in keys[1:]:
            assert f.may_contain(key)


class TestSliceFilterBank:
    def test_tracks_lines(self):
        bank = SliceFilterBank(num_filters=32, entries=512, seed=1)
        for line in range(0, 1000, 17):
            bank.insert(line)
        for line in range(0, 1000, 17):
            assert bank.may_contain(line)

    def test_remove(self):
        bank = SliceFilterBank(32, 512, seed=1)
        bank.insert(100)
        bank.remove(100)
        assert not bank.may_contain(100)

    def test_filter_index_stable(self):
        bank = SliceFilterBank(32, 512, seed=1)
        assert bank.filter_index(77) == bank.filter_index(77)
        assert 0 <= bank.filter_index(77) < 32

    def test_false_positive_rate_reasonable(self):
        """512 entries x 32 filters: ~1k inserted lines should leave the
        overwhelming majority of other lines negative."""
        bank = SliceFilterBank(32, 512, seed=3)
        inserted = set(range(0, 4096, 4))
        for line in inserted:
            bank.insert(line)
        probes = [line for line in range(100_000, 110_000)
                  if line not in inserted]
        fp = sum(1 for line in probes if bank.may_contain(line))
        assert fp / len(probes) < 0.15


class TestL1FilterShadow:
    def make_pair(self):
        bank = SliceFilterBank(32, 512, seed=5)
        shadow = L1FilterShadow([bank])
        return bank, shadow
    def test_copy_semantics(self):
        bank, shadow = self.make_pair()
        bank.insert(42)
        idx = bank.filter_index(42)
        assert not shadow.has_copy(0, 42)
        shadow.install(0, idx, bank.bit_projection(idx))
        assert shadow.has_copy(0, 42)
        assert shadow.may_contain(0, 42)

    def test_query_before_copy_raises(self):
        _bank, shadow = self.make_pair()
        with pytest.raises(RuntimeError):
            shadow.may_contain(0, 42)

    def test_writeback_inserts_locally(self):
        bank, shadow = self.make_pair()
        idx = bank.filter_index(42)
        shadow.install(0, idx, bank.bit_projection(idx))
        assert not shadow.may_contain(0, 42)
        shadow.note_writeback(0, 42)
        assert shadow.may_contain(0, 42)

    def test_clear_wipes_validity(self):
        bank, shadow = self.make_pair()
        idx = bank.filter_index(42)
        shadow.install(0, idx, bank.bit_projection(idx))
        shadow.clear()
        assert not shadow.has_copy(0, 42)

    def test_shadow_is_conservative_superset(self):
        """After copy + local writebacks, the shadow never misses a line
        the slice bank would report (no false negatives for safety)."""
        bank, shadow = self.make_pair()
        lines = list(range(0, 2000, 13))
        for line in lines:
            bank.insert(line)
        copied = set()
        for line in lines:
            idx = bank.filter_index(line)
            if idx not in copied:
                shadow.install(0, idx, bank.bit_projection(idx))
                copied.add(idx)
        for line in lines:
            assert shadow.may_contain(0, line)

    def test_two_slices_with_different_seeds(self):
        """Each slice's shadow indexes and hashes like that slice's bank."""
        banks = [SliceFilterBank(32, 512, seed=s) for s in (1, 2)]
        shadow = L1FilterShadow(banks)
        lines = range(0, 4000, 7)
        assert any(banks[0].filter_index(line) != banks[1].filter_index(line)
                   for line in lines)
        for slice_id, bank in enumerate(banks):
            for line in lines:
                assert (shadow.filter_index(slice_id, line)
                        == bank.filter_index(line))
        banks[1].insert(42)
        idx = banks[1].filter_index(42)
        shadow.install(1, idx, banks[1].bit_projection(idx))
        assert shadow.has_copy(1, 42)
        assert shadow.may_contain(1, 42)
        assert not shadow.has_copy(0, 42)
        shadow.note_writeback(0, 42)
        idx = banks[0].filter_index(42)
        shadow.install(0, idx, banks[0].bit_projection(idx))
        assert shadow.may_contain(0, 42)

    def test_clear_wipes_bits(self):
        bank, shadow = self.make_pair()
        idx = bank.filter_index(42)
        shadow.note_writeback(0, 42)
        shadow.clear()
        shadow.install(0, idx, bank.bit_projection(idx))
        assert not shadow.may_contain(0, 42)


def test_dbypfull_builds_hashes_once_per_slice(monkeypatch):
    """A DBypFull machine builds (hash + select) per slice, no more, and
    every L1 shadow reuses its slice bank's hash objects."""
    built = []
    original = H3Hash.__init__

    def counting_init(self, table_size, seed):
        built.append(self)
        original(self, table_size, seed)

    config = SystemConfig()
    workload = build_workload("stream", ScaleConfig.tiny(),
                              num_cores=config.num_tiles)
    monkeypatch.setattr(filters.H3Hash, "__init__", counting_init)
    system = System(workload, protocol("DBypFull"), config)
    assert len(built) == config.num_tiles * 2
    proto_sys = system.proto_sys
    banks = proto_sys.slice_blooms
    assert len(banks) == len(proto_sys.l1_blooms) == config.num_tiles
    for shadow in proto_sys.l1_blooms:
        for s, bank in enumerate(banks):
            assert shadow._selects[s] is bank.select
            for f in shadow._filters[s]:
                assert f._hash is bank.hash
