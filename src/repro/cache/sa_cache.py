"""Set-associative cache arrays with per-word state.

Both protocols need word-granular bookkeeping (DeNovo for coherence, MESI
for the waste profiler and dirty-word writeback accounting), so every line
carries per-word state, dirty flags and memory-instance references.  The
line class is parameterized so each protocol can attach its own fields.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar)

from repro.common.addressing import WORDS_PER_LINE

#: Shared templates for one-slice-assignment word resets.
_ZERO_WORDS = (0,) * WORDS_PER_LINE
_CLEAN_WORDS = (False,) * WORDS_PER_LINE
_NO_INSTS = (None,) * WORDS_PER_LINE


class CacheLine:
    """One cache line: tag plus per-word metadata.

    ``word_state`` holds protocol-defined small integers; ``word_dirty``
    marks words modified locally; ``mem_inst`` references the memory-level
    waste-profiler instance each word copy derives from (or None for words
    produced locally by stores).
    """

    __slots__ = ("line_addr", "word_state", "word_dirty", "mem_inst")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.word_state: List[int] = [0] * WORDS_PER_LINE
        self.word_dirty: List[bool] = [False] * WORDS_PER_LINE
        self.mem_inst: List[Optional[object]] = [None] * WORDS_PER_LINE

    def reset_words(self) -> None:
        self.word_state[:] = _ZERO_WORDS
        self.word_dirty[:] = _CLEAN_WORDS
        self.mem_inst[:] = _NO_INSTS

    def any_dirty(self) -> bool:
        return any(self.word_dirty)

    def dirty_offsets(self) -> List[int]:
        return [i for i, d in enumerate(self.word_dirty) if d]


LineT = TypeVar("LineT", bound=CacheLine)


class SetAssocCache(Generic[LineT]):
    """LRU set-associative cache indexed by line address."""

    __slots__ = ("_num_sets", "_assoc", "_index_shift", "_line_factory",
                 "_tags", "_lru", "_lines", "stat_probes", "stat_installs",
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
        # Per set: line_addr -> line, plus LRU order (front = MRU).
        self._tags: List[Dict[int, LineT]] = [dict() for _ in range(num_sets)]
        self._lru: List[List[int]] = [[] for _ in range(num_sets)]
        # Flat line_addr -> line mirror of every per-set dict, so the
        # hot lookup path resolves residency with one dict get and only
        # computes the set index when it must touch the LRU order.
        self._lines: Dict[int, LineT] = {}
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

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[LineT]:
        """Return the resident line or None; by default refresh LRU."""
        self.stat_probes += 1
        line = self._lines.get(line_addr)
        if line is not None and touch:
            idx = (line_addr >> self._index_shift) % self._num_sets
            order = self._lru[idx]
            # Hot case: the line is already most-recently-used, so the
            # remove/insert pair would be a no-op list rebuild.
            if order[0] != line_addr:
                order.remove(line_addr)
                order.insert(0, line_addr)
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
        idx = (line_addr >> self._index_shift) % self._num_sets
        tags = self._tags[idx]
        if line_addr in tags or len(tags) < self._assoc:
            return None
        return tags[self._lru[idx][-1]]

    def allocate(self, line_addr: int) -> Tuple[LineT, Optional[LineT]]:
        """Insert ``line_addr`` (MRU); return ``(line, evicted_line)``.

        The evicted line is removed from the array before being returned,
        so the caller can inspect its state for writeback handling.  If the
        line is already resident it is refreshed and returned with no
        victim.
        """
        idx = (line_addr >> self._index_shift) % self._num_sets
        tags = self._tags[idx]
        order = self._lru[idx]
        existing = tags.get(line_addr)
        if existing is not None:
            if order[0] != line_addr:
                order.remove(line_addr)
                order.insert(0, line_addr)
            return existing, None
        victim: Optional[LineT] = None
        if len(tags) >= self._assoc:
            victim_addr = order.pop()
            victim = tags.pop(victim_addr)
            del self._lines[victim_addr]
            self.stat_evictions += 1
        line = self._line_factory(line_addr)
        tags[line_addr] = line
        self._lines[line_addr] = line
        order.insert(0, line_addr)
        self.stat_installs += 1
        return line, victim

    def remove(self, line_addr: int) -> Optional[LineT]:
        """Remove a line without replacement (invalidation/recall)."""
        idx = (line_addr >> self._index_shift) % self._num_sets
        line = self._tags[idx].pop(line_addr, None)
        if line is not None:
            del self._lines[line_addr]
            self._lru[idx].remove(line_addr)
            self.stat_evictions += 1
        return line

    def reset_energy_counters(self) -> None:
        """Zero the observational counters (end of measurement warm-up)."""
        self.stat_probes = 0
        self.stat_installs = 0
        self.stat_evictions = 0

    def register_metrics(self, hub, level: str, tile: int) -> None:
        """Register this array's counters into a ``repro.obs`` hub.

        Pull-based: the hub samples the existing energy-model counters,
        so nothing is added to the lookup/allocate hot path.  Called
        only when an observability session is attached to the run.
        """
        for stat, attr in (("probes", "stat_probes"),
                           ("installs", "stat_installs"),
                           ("evictions", "stat_evictions")):
            hub.add_pull(f"{level}_{stat}",
                         lambda c=self, a=attr: getattr(c, a),
                         help=f"{level.upper()} tag-array {stat}",
                         tile=tile)
        hub.add_pull(f"{level}_occupancy", self.occupancy, kind="gauge",
                     help=f"resident lines per {level.upper()} array",
                     tile=tile)

    def resident_lines(self) -> List[LineT]:
        """All resident lines (for end-of-simulation finalization)."""
        out: List[LineT] = []
        for tags in self._tags:
            out.extend(tags.values())
        return out

    def occupancy(self) -> int:
        return sum(len(tags) for tags in self._tags)
