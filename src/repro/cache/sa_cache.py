"""Set-associative cache arrays with per-word line metadata.

Both protocols need word-granular bookkeeping (DeNovo for coherence, MESI
for the waste profiler and dirty-word writeback accounting), so every line
carries per-word dirty flags and memory-instance references.  They are
bit masks over the line's 16 words (bit ``i`` is word ``i``), not lists,
so a resident line holds a few ints rather than three 16-slot lists.  The
line class is parameterized so each protocol can attach its own fields
(DeNovo's per-word Valid/Registered masks, MESI's directory state).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar)

from repro.common.addressing import WORDS_PER_LINE

#: The mask with every word of a line set.
FULL_MASK = (1 << WORDS_PER_LINE) - 1


#: The offsets set in each byte value, for the low and the high byte.
_LOW_OFFSETS = tuple(tuple(off for off in range(8) if byte >> off & 1)
                     for byte in range(256))
_HIGH_OFFSETS = tuple(tuple(off + 8 for off in low) for low in _LOW_OFFSETS)


def mask_offsets(mask: int) -> Tuple[int, ...]:
    """The word offsets set in ``mask`` (a line mask), ascending."""
    return _LOW_OFFSETS[mask & 255] + _HIGH_OFFSETS[mask >> 8]


class CacheLine:
    """One cache line: tag plus per-word metadata.

    ``word_dirty`` is the mask of words modified locally.  ``inst_mask``
    is the mask of words whose copy derives from a memory-level
    waste-profiler instance; word ``i``'s instance handle is
    ``mem_inst[i]`` and only the masked offsets are meaningful.  Words
    produced locally by stores have no instance.

    ``mem_inst`` is normally a ``range`` of 16 handles, offset-indexed:
    one fill's instances are consecutive handles, so the range is the
    fill's first handle, and every copy of that fill (an L2 line and the
    L1 lines it served) shares the one immutable object.  A line whose
    instances are not one such range (words of two fills, or a Flex fill
    whose words have gaps) falls back to a private 16-slot list.

    A last-writer stamp per word (a planned correctness oracle) would
    move with exactly the same fills, writebacks and forwards as
    ``mem_inst``; it must ride the same (range, mask) assignments.
    """

    __slots__ = ("line_addr", "word_dirty", "inst_mask", "mem_inst")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.word_dirty = 0
        self.inst_mask = 0
        self.mem_inst = None

    def reset_words(self) -> None:
        self.word_dirty = 0
        self.inst_mask = 0
        self.mem_inst = None

    # -- memory instances ------------------------------------------------
    def inst(self, off: int) -> Optional[int]:
        """Word ``off``'s instance handle, or None."""
        return self.mem_inst[off] if self.inst_mask >> off & 1 else None

    def inst_handles(self):
        """The handles of every word with an instance, in offset order."""
        mask = self.inst_mask
        if mask == FULL_MASK:
            return self.mem_inst
        insts = self.mem_inst
        return [insts[off] for off in mask_offsets(mask)]

    def set_line_insts(self, insts) -> None:
        """Take a whole line's instances: ``insts`` is offset-indexed
        (a fill's ``range``, shared as is, or None for none)."""
        self.mem_inst = insts
        self.inst_mask = FULL_MASK if insts is not None else 0

    def add_inst(self, off: int, handle: int) -> None:
        """Word ``off`` now holds a copy of instance ``handle``."""
        mask = self.inst_mask
        insts = self.mem_inst
        if not mask:
            self.mem_inst = range(handle - off, handle - off + WORDS_PER_LINE)
        elif insts.__class__ is list:
            insts[off] = handle
        elif insts[off] != handle:
            # Not the range the line's other instances belong to.
            insts = self.mem_inst = list(insts)
            insts[off] = handle
        self.inst_mask = mask | 1 << off

    def take_insts(self, mask: int) -> List[int]:
        """Drop the instances of the words in ``mask``; return the
        handles of those that had one, in offset order."""
        held = self.inst_mask & mask
        if not held:
            return []
        insts = self.mem_inst
        self.inst_mask ^= held
        return [insts[off] for off in mask_offsets(held)]


LineT = TypeVar("LineT", bound=CacheLine)


class SetAssocCache(Generic[LineT]):
    """LRU set-associative cache indexed by line address."""

    __slots__ = ("_num_sets", "_assoc", "_index_shift", "_line_factory",
                 "_sets", "_lines", "_mru", "stat_probes", "stat_installs",
                 "stat_evictions")

    def __init__(self, num_sets: int, assoc: int,
                 line_factory: Callable[[int], LineT] = CacheLine,
                 index_shift: int = 0) -> None:
        """``index_shift`` drops low line-address bits before set
        selection — L2 slices on power-of-two machines must shift out
        the home-interleaving bits (line % num_tiles selects the slice),
        otherwise every line of a slice lands in the same set.
        Non-power-of-two tile counts pass 0: their slice id is not a
        bit-field, so the low bits still spread across sets."""
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("sets and associativity must be positive")
        if index_shift < 0:
            raise ValueError("index_shift must be non-negative")
        self._num_sets = num_sets
        self._assoc = assoc
        self._index_shift = index_shift
        self._line_factory = line_factory
        # Per set: line_addr -> line in LRU order (first = LRU, last =
        # MRU); a touch moves the line to the end.
        self._sets: List[Dict[int, LineT]] = [dict() for _ in range(num_sets)]
        # Flat line_addr -> line mirror of every set, so the hot lookup
        # path resolves residency with one dict get and only computes
        # the set index when it must touch the LRU order.
        self._lines: Dict[int, LineT] = {}
        # The line last touched or installed: while it stays resident it
        # is the MRU of its set, so touching it again changes no order
        # (and most accesses touch the line the previous one did).  A
        # line is only ever re-inserted by ``allocate``, which resets it.
        self._mru = -1
        # Energy-model event counters (purely observational: they feed
        # ``repro.energy`` per-event cost tables and never influence
        # timing or replacement decisions).
        #
        # ``stat_probes`` counts one tag probe per word examined.  Hot
        # word-granular loops that reuse a prior ``lookup`` result for
        # further words of the same line bump the counter directly
        # (``cache.stat_probes += n``) so the accounting stays identical
        # to one ``lookup`` call per word.
        self.stat_probes = 0        # tag-array probes (lookup calls)
        self.stat_installs = 0      # new lines written into the array
        self.stat_evictions = 0     # lines removed (evictions + recalls)

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def assoc(self) -> int:
        return self._assoc

    def set_index(self, line_addr: int) -> int:
        return (line_addr >> self._index_shift) % self._num_sets

    def lru_order(self, line_addr: int) -> Iterable[int]:
        """The resident line addresses of ``line_addr``'s set, least
        recently used first (a live view: do not change the set while
        iterating)."""
        return self._sets[(line_addr >> self._index_shift)
                          % self._num_sets].keys()

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[LineT]:
        """Return the resident line or None; by default refresh LRU."""
        self.stat_probes += 1
        line = self._lines.get(line_addr)
        if line is not None and touch and line_addr != self._mru:
            ways = self._sets[(line_addr >> self._index_shift)
                              % self._num_sets]
            ways[line_addr] = ways.pop(line_addr)
            self._mru = line_addr
        return line

    def can_claim(self, line_addr: int, pinned: Iterable[int]) -> bool:
        """Whether a fill of ``line_addr`` can take a way now.

        True when the line is resident, or when fewer than ``assoc``
        resident lines of its set are in ``pinned`` (lines that must not
        be evicted).  Probes count as one lookup of ``line_addr`` plus
        one per pinned line in the same set.
        """
        self.stat_probes += 1
        lines = self._lines
        if line_addr in lines:
            return True
        shift = self._index_shift
        num_sets = self._num_sets
        idx = (line_addr >> shift) % num_sets
        held = 0
        for pinned_addr in pinned:
            if (pinned_addr >> shift) % num_sets == idx:
                self.stat_probes += 1
                if pinned_addr in lines:
                    held += 1
        return held < self._assoc

    def victim_for(self, line_addr: int) -> Optional[LineT]:
        """Line that would be evicted to make room for ``line_addr``.

        Returns None when the set has a free way or the line is already
        resident.
        """
        ways = self._sets[(line_addr >> self._index_shift) % self._num_sets]
        if line_addr in ways or len(ways) < self._assoc:
            return None
        return next(iter(ways.values()))

    def allocate(self, line_addr: int) -> Tuple[LineT, Optional[LineT]]:
        """Insert ``line_addr`` (MRU); return ``(line, evicted_line)``.

        The evicted line is removed from the array before being returned,
        so the caller can inspect its state for writeback handling.  If the
        line is already resident it is refreshed and returned with no
        victim.
        """
        ways = self._sets[(line_addr >> self._index_shift) % self._num_sets]
        self._mru = line_addr
        existing = ways.pop(line_addr, None)
        if existing is not None:
            ways[line_addr] = existing
            return existing, None
        victim: Optional[LineT] = None
        if len(ways) >= self._assoc:
            victim_addr = next(iter(ways))
            victim = ways.pop(victim_addr)
            del self._lines[victim_addr]
            self.stat_evictions += 1
        line = self._line_factory(line_addr)
        ways[line_addr] = line
        self._lines[line_addr] = line
        self.stat_installs += 1
        return line, victim

    def remove(self, line_addr: int) -> Optional[LineT]:
        """Remove a line without replacement (invalidation/recall)."""
        line = self._sets[(line_addr >> self._index_shift)
                          % self._num_sets].pop(line_addr, None)
        if line is not None:
            del self._lines[line_addr]
            self.stat_evictions += 1
        return line

    def resident_lines(self) -> List[LineT]:
        """All resident lines (for end-of-simulation finalization)."""
        out: List[LineT] = []
        for ways in self._sets:
            out.extend(ways.values())
        return out
