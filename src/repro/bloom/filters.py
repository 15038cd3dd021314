"""Bloom filters for the "L2 Request Bypass" optimization (Section 4.4).

Each L2 slice keeps a bank of 32 *counting* Bloom filters (8-bit counters,
512 entries, one H3 hash) tracking the line addresses with dirty words in
that slice.  Each L1 keeps 1-bit *shadow* copies of all ``32 x 16`` slice
filters: cleared at every barrier, copied from the L2 on the first demand
miss that needs a given filter, and updated locally with the line address
of every L1 writeback.  A negative L1 lookup proves no on-chip cache holds
dirty words for the line, so the request may go straight to memory.

The shadows share the slice hashes: an :class:`L1FilterShadow` is built
from the slice banks and reuses each bank's H3 hash and filter-select
objects, so a machine builds its hashes once per slice, not once per
(core, slice) pair, and a projection unions into the shadow bit for bit.
Every filter, counting or shadow, uses exactly one H3 hash.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence


class H3Hash:
    """An H3 universal hash: XOR of per-bit random rows.

    ``h(x) = XOR of rows[i] for every set bit i of x``, reduced modulo the
    table size.  Deterministic per seed so simulations are reproducible.

    Evaluation is table-driven: the per-bit XOR is precomputed into one
    256-entry table per key byte, so a hash costs six table lookups
    instead of up to 48 bit tests (bit-for-bit identical results).
    Each table is an ``array('I')`` of its 32-bit values, 1 KiB, where a
    tuple of boxed ints took about 10 KiB: a bypass machine builds 32
    hashes, one filter hash and one select hash per slice.
    """

    __slots__ = ("_table_size", "_rows", "_byte_tables")

    KEY_BITS = 48

    def __init__(self, table_size: int, seed: int) -> None:
        if table_size <= 0:
            raise ValueError("table size must be positive")
        self._table_size = table_size
        rng = random.Random(seed)
        self._rows = [rng.getrandbits(32) for _ in range(self.KEY_BITS)]
        # Byte-sliced lookup tables: _byte_tables[b][v] is the XOR of
        # rows for the set bits of value v at byte position b.  Each entry
        # extends the entry without v's lowest set bit by that bit's row.
        self._byte_tables = []
        for b in range(self.KEY_BITS // 8):
            rows = self._rows[b * 8:(b + 1) * 8]
            table = [0] * 256
            for value in range(1, 256):
                low = value & -value
                table[value] = table[value ^ low] ^ rows[low.bit_length() - 1]
            self._byte_tables.append(array("I", table))

    def __call__(self, key: int) -> int:
        t = self._byte_tables
        acc = t[0][key & 255]
        key >>= 8
        b = 1
        while key and b < 6:
            acc ^= t[b][key & 255]
            key >>= 8
            b += 1
        return acc % self._table_size


class BloomFilter:
    """Plain (1 bit per entry) Bloom filter used at the L1s."""

    __slots__ = ("_bits", "_hash")

    def __init__(self, entries: int, h3: H3Hash) -> None:
        self._bits = bytearray(entries)
        self._hash = h3

    def insert(self, key: int) -> None:
        self._bits[self._hash(key)] = 1

    def may_contain(self, key: int) -> bool:
        return self._bits[self._hash(key)] == 1

    def clear(self) -> None:
        self._bits[:] = bytes(len(self._bits))

    def union_bits(self, bits: Sequence[int]) -> None:
        """OR another filter's 0/1 bit projection into this one."""
        n = len(self._bits)
        if len(bits) != n:
            raise ValueError("filter size mismatch")
        # One entry per byte, each 0 or 1, so a bytewise OR is an OR of
        # the two buffers read as integers.
        self._bits[:] = (int.from_bytes(self._bits, "little")
                         | int.from_bytes(bits, "little")
                         ).to_bytes(n, "little")

    @property
    def size(self) -> int:
        return len(self._bits)


#: Byte translation table mapping every nonzero counter to 1.
_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255


class CountingBloomFilter:
    """Counting (8-bit saturating) Bloom filter used at the L2 slices."""

    __slots__ = ("_counters", "_hash")

    COUNTER_MAX = 255  # counters fill a byte of a bytearray

    def __init__(self, entries: int, h3: H3Hash) -> None:
        self._counters = bytearray(entries)
        self._hash = h3

    def insert(self, key: int) -> None:
        idx = self._hash(key)
        if self._counters[idx] < self.COUNTER_MAX:
            self._counters[idx] += 1

    def remove(self, key: int) -> None:
        idx = self._hash(key)
        if self._counters[idx] > 0:
            self._counters[idx] -= 1

    def may_contain(self, key: int) -> bool:
        return self._counters[self._hash(key)] > 0

    def bit_projection(self) -> bytearray:
        """1-bit view of the counters, the payload of a filter-copy reply."""
        return self._counters.translate(_NONZERO_TO_ONE)

    @property
    def size(self) -> int:
        return len(self._counters)


class SliceFilterBank:
    """The bank of counting Bloom filters at one L2 slice.

    The cache line address selects a filter (similar to a cache index) and
    is then hashed again for the Bloom lookup within that filter.
    """

    def __init__(self, num_filters: int, entries: int, seed: int) -> None:
        if num_filters <= 0:
            raise ValueError("need at least one filter")
        self._num_filters = num_filters
        self._entries = entries
        # The L1 shadows of this slice reuse these hash objects.
        self.hash = H3Hash(entries, seed * 1000)
        self.select = H3Hash(num_filters, seed * 1000 + 997)
        self._filters = [CountingBloomFilter(entries, self.hash)
                         for _ in range(num_filters)]
        # Energy-model event counters (observational only; consumed by
        # ``repro.energy`` — lookups and counter updates cost energy).
        self.stat_checks = 0      # membership queries against the bank
        self.stat_updates = 0     # counter inserts/removes

    def filter_index(self, line_addr: int) -> int:
        return self.select(line_addr)

    def insert(self, line_addr: int) -> None:
        self.stat_updates += 1
        self._filters[self.filter_index(line_addr)].insert(line_addr)

    def remove(self, line_addr: int) -> None:
        self.stat_updates += 1
        self._filters[self.filter_index(line_addr)].remove(line_addr)

    def may_contain(self, line_addr: int) -> bool:
        self.stat_checks += 1
        return self._filters[self.filter_index(line_addr)].may_contain(line_addr)

    def bit_projection(self, filter_index: int) -> bytearray:
        return self._filters[filter_index].bit_projection()

    @property
    def num_filters(self) -> int:
        return self._num_filters

    @property
    def entries(self) -> int:
        return self._entries


class L1FilterShadow:
    """An L1's shadow copies of every L2 slice's filters.

    Built from the slice banks in slice order: slice ``s``'s shadow
    filters hash with bank ``s``'s H3 objects and pick a filter with its
    select hash, so shadow and bank agree on every index.
    ``valid[slice][filter]`` tracks which filters have been copied since
    the last barrier.  Lookups on uncopied filters are not allowed —
    callers must first fetch the projection from the slice (which costs
    overhead traffic) and :meth:`install`.
    """

    def __init__(self, banks: Sequence[SliceFilterBank]) -> None:
        self._selects = [bank.select for bank in banks]
        self._filters = [
            [BloomFilter(bank.entries, bank.hash)
             for _ in range(bank.num_filters)]
            for bank in banks
        ]
        self._valid = [[False] * bank.num_filters for bank in banks]
        # (slice, filter) pairs installed or written since the last
        # barrier: the only ones a barrier has to wipe.
        self._touched = set()
        # Energy-model event counters (observational only).
        self.stat_checks = 0      # shadow membership queries
        self.stat_inserts = 0     # writeback-driven shadow inserts
        self.stat_installs = 0    # filter projections copied from an L2

    def filter_index(self, slice_id: int, line_addr: int) -> int:
        return self._selects[slice_id](line_addr)

    def has_copy(self, slice_id: int, line_addr: int) -> bool:
        return self._valid[slice_id][self.filter_index(slice_id, line_addr)]

    def install(self, slice_id: int, filter_index: int,
                bits: Sequence[int]) -> None:
        """Union a slice filter's bit projection into the shadow copy."""
        self.stat_installs += 1
        self._filters[slice_id][filter_index].union_bits(bits)
        self._valid[slice_id][filter_index] = True
        self._touched.add((slice_id, filter_index))

    def note_writeback(self, slice_id: int, line_addr: int) -> None:
        """Every L1 writeback inserts its line address into the shadow."""
        self.stat_inserts += 1
        index = self.filter_index(slice_id, line_addr)
        self._filters[slice_id][index].insert(line_addr)
        self._touched.add((slice_id, index))

    def may_contain(self, slice_id: int, line_addr: int) -> bool:
        index = self.filter_index(slice_id, line_addr)
        if not self._valid[slice_id][index]:
            raise RuntimeError("querying an uncopied filter; fetch it first")
        self.stat_checks += 1
        return self._filters[slice_id][index].may_contain(line_addr)

    def clear(self) -> None:
        """Barrier: wipe all shadow copies and validity bits (only the
        touched filters can hold any)."""
        for slice_id, index in self._touched:
            self._filters[slice_id][index].clear()
            self._valid[slice_id][index] = False
        self._touched.clear()
