"""Store buffering structures.

``StoreBuffer`` models MESI's non-blocking writes: up to N outstanding
ownership requests; the core stalls only when the buffer is full.

``WriteCombineTable`` models DeNovo's write-combining optimization (paper
Section 4.2): pending word-registration requests for the same cache line
are batched into one message, released when the line fills, a timeout
expires, a release/barrier is issued, or the line is evicted from the L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.addressing import OFFSET_MASK, WORDS_PER_LINE

#: Outstanding ownership requests per MESI core (non-blocking writes).
STORE_BUFFER_ENTRIES = 32
#: Cycles a DeNovo write-combining entry may wait before it is flushed.
WRITE_COMBINE_TIMEOUT = 10_000


class StoreBuffer:
    """Outstanding-ownership-request tracker for MESI non-blocking writes."""

    __slots__ = ("_capacity", "_pending")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._pending: Set[int] = set()   # line addresses with GETX in flight

    def is_full(self) -> bool:
        return len(self._pending) >= self._capacity

    def has(self, line_addr: int) -> bool:
        return line_addr in self._pending

    def insert(self, line_addr: int) -> None:
        if self.is_full():
            raise RuntimeError("store buffer overflow; caller must stall")
        self._pending.add(line_addr)

    def retire(self, line_addr: int) -> None:
        self._pending.discard(line_addr)

    def __len__(self) -> int:
        return len(self._pending)


@dataclass(slots=True)
class WriteCombineEntry:
    """Pending registration requests for one cache line."""

    line_addr: int
    word_mask: int = 0          # bit i set => word i has a pending request
    created_at: int = 0

    def offsets(self) -> List[int]:
        return [i for i in range(WORDS_PER_LINE) if self.word_mask >> i & 1]

    @property
    def is_full_line(self) -> bool:
        return self.word_mask == (1 << WORDS_PER_LINE) - 1


def _created_at(entry: WriteCombineEntry) -> int:
    return entry.created_at


class WriteCombineTable:
    """DeNovo write-combining unit (32 entries, 10,000-cycle timeout).

    The caller polls :meth:`expired` from its event loop and flushes the
    returned entries; :meth:`drain` empties the whole table at releases and
    barriers.  Inserting into a full table must be preceded by flushing —
    the structure itself never silently drops requests.
    """

    __slots__ = ("_capacity", "_timeout", "_entries", "_in_order",
                 "_newest")

    def __init__(self, capacity: int, timeout: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._timeout = timeout
        self._entries: Dict[int, WriteCombineEntry] = {}
        # One core's stores arrive at non-decreasing times, so entries
        # are normally created in time order and the first one (dict
        # order) is the oldest.  ``_in_order`` says whether that held
        # since the table was last empty; ``_newest`` is the latest
        # creation time seen in that span.
        self._in_order = True
        self._newest = 0

    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    def has(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def get(self, line_addr: int) -> Optional[WriteCombineEntry]:
        return self._entries.get(line_addr)

    def add_store(self, word_addr: int, now: int) -> WriteCombineEntry:
        """Record a pending registration for ``word_addr``.

        Raises if a new entry is needed while full: callers must first
        flush (oldest-entry policy is theirs to choose).

        This sits on the DeNovo store fast path, so line/offset
        arithmetic and the mask update are inlined.
        """
        line_addr = word_addr >> 4
        entries = self._entries
        entry = entries.get(line_addr)
        if entry is None:
            if len(entries) >= self._capacity:
                raise RuntimeError("write-combine table overflow; flush first")
            if not entries:
                self._in_order = True
            elif now < self._newest:
                self._in_order = False
            self._newest = now
            entry = WriteCombineEntry(line_addr=line_addr, created_at=now)
            entries[line_addr] = entry
        entry.word_mask |= 1 << (word_addr & OFFSET_MASK)
        return entry

    def pop(self, line_addr: int) -> Optional[WriteCombineEntry]:
        """Remove and return the entry for ``line_addr`` (eviction/full line)."""
        return self._entries.pop(line_addr, None)

    def oldest(self) -> Optional[WriteCombineEntry]:
        """The entry created first (ties: the first inserted)."""
        entries = self._entries
        if not entries:
            return None
        if self._in_order:
            return next(iter(entries.values()))
        return min(entries.values(), key=_created_at)

    def expired(self, now: int) -> List[WriteCombineEntry]:
        """Entries whose timeout elapsed; removed from the table."""
        out = [e for e in self._entries.values()
               if now - e.created_at >= self._timeout]
        for entry in out:
            del self._entries[entry.line_addr]
        return out

    def next_deadline(self) -> Optional[int]:
        """Earliest cycle at which some entry will time out."""
        oldest = self.oldest()
        if oldest is None:
            return None
        return oldest.created_at + self._timeout

    def drain(self) -> List[WriteCombineEntry]:
        """Remove and return every entry (release instruction / barrier)."""
        out = list(self._entries.values())
        self._entries.clear()
        return out

    def __len__(self) -> int:
        return len(self._entries)
