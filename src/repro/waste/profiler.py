"""Word-level waste characterization (paper Section 4.1).

Every word moved into a cache level (or fetched from memory) is classified
into one of six categories:

* **Used** — its value was read (or, for the L2, returned in a response);
* **Write** — overwritten before being Used;
* **Fetch** — it was already present in the cache when it arrived;
* **Invalidate** — invalidated by the coherence protocol before being Used;
* **Evict** — evicted before being classified Used or Write;
* **Unevicted** — still resident and unclassified at end of simulation.

Memory-level profiling additionally tracks ``(address, identifier)``
instances with an on-chip reference count (Figure 4.3), plus an **Excess**
category for words read out of DRAM but dropped at the memory controller by
L2-Flex filtering.

Classification is *first event wins*: a word instance starts pending and
receives exactly one terminal category.  Each instance is an integer
**handle** into the run-lifetime :class:`WastePools`, one byte of verdict
per handle (plus a one-byte reference count for memory instances), so a
tiny-grid cell's hundred thousand word instances cost no object each.
A message's data words get consecutive handles, so traffic accounting
keeps one packed integer per data message (its first handle and word
count) and resolves them through the pool after finalization.  The
profilers' live state is flat too: a cache level keeps one row per
resident line (the fill's first handle, one int, or a 16-slot
``array('q')`` once single words arrive into it), and the memory level
one ``array('i')`` entry per word of the run's regions, so neither
holds a boxed int per tracked word.  Both are lazy: a settled handle
left in a row or in the index acts as an empty slot, so settling an
instance writes its verdict byte and nothing else, and no pool keeps
an instance's address.  A whole line's fill, eviction or invalidation
settles its 16 verdicts, and installs or drops its 16 copy counts,
with one ``bytes`` operation each.

One profiler per level counts for the whole run.  The measurement
window (everything after warm-up) is a mark, not a fresh object:
``mark()`` records the level's first window handle, and a cache level's
counts are the histogram of its pool from that handle on.
"""

from __future__ import annotations

import enum
from array import array
from typing import Dict, List, Optional, Set, Union

from repro.cache.sa_cache import FULL_MASK, mask_offsets
from repro.common.addressing import WORDS_PER_LINE


class Category(enum.Enum):
    USED = "used"
    WRITE = "write"
    FETCH = "fetch"
    INVALIDATE = "invalidate"
    EVICT = "evict"
    UNEVICTED = "unevicted"
    EXCESS = "excess"      # memory level only


#: Display order used by the figures (Used at the bottom of each bar).
CATEGORY_ORDER = (
    Category.USED, Category.FETCH, Category.WRITE, Category.INVALIDATE,
    Category.EVICT, Category.UNEVICTED, Category.EXCESS,
)

#: Verdict codes stored in the pools: 0 is pending, otherwise the
#: category's position in ``Category`` plus one.  The memory profiler's
#: counter lists are indexed by the same codes.
_CATEGORIES = tuple(Category)
_CODE = {cat: code for code, cat in enumerate(_CATEGORIES, 1)}
_BY_CODE = (None,) + _CATEGORIES
PENDING = 0
C_USED = _CODE[Category.USED]
C_WRITE = _CODE[Category.WRITE]
C_FETCH = _CODE[Category.FETCH]
C_INVALIDATE = _CODE[Category.INVALIDATE]
C_EVICT = _CODE[Category.EVICT]
C_UNEVICTED = _CODE[Category.UNEVICTED]
C_EXCESS = _CODE[Category.EXCESS]

_LINE_PENDING = bytes(WORDS_PER_LINE)
#: One verdict byte per code, to fill a row's pending bytes with.
_CODE_BYTE = tuple(bytes((code,)) for code in range(len(_BY_CODE)))

#: ``bytes.translate`` tables that add one copy to, and take one copy
#: from, each count of a slice of ``WastePools.mem_refs``.  Their
#: entries at 255 and 0 are never used: the callers raise first.
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
_MINUS_ONE = b"\xff" + bytes(range(255))

#: An empty slot of a cache profiler's active row, and of the memory
#: profiler's pending index.
NO_HANDLE = -1
#: Pending-index entry of an address whose instances are in the side dict.
_SPILLED = -2
#: The first word address the memory profiler refuses.
_ADDR_LIMIT = 1 << 31
_EMPTY_ROW = array("q", [NO_HANDLE] * WORDS_PER_LINE)
_NO_LINE = array("i", [NO_HANDLE] * WORDS_PER_LINE)


def _too_wide(addr: int) -> OverflowError:
    return OverflowError(f"word address {addr:#x} needs more than 31 bits")


class WastePools:
    """Run-lifetime storage behind every word-instance handle.

    ``l1_cat`` and ``l2_cat`` hold the verdict of each L1 and L2 handle,
    one pool per level, so a level's handles from its window mark on are
    exactly its window's words; ``mem_cat``/``mem_refs`` hold each memory
    instance's verdict and on-chip copy count.  No pool keeps an
    instance's address: only the memory profiler's pending index maps
    addresses to instances, and only while they may still be pending.
    Verdicts and copy counts are one byte each in a ``bytearray``:
    ``count(code, start)`` histograms a window without copying it, and a
    line's 16 bytes change with one slice operation.  A copy count is at
    most one per L1 plus one for the L2 (65 on an 8x8 machine); a count
    past 255 or below 0 raises ``ValueError``.  The traffic ledger
    resolves its data records through the two cache pools.
    """

    __slots__ = ("l1_cat", "l2_cat", "mem_cat", "mem_refs")

    def __init__(self) -> None:
        self.l1_cat = bytearray()
        self.l2_cat = bytearray()
        self.mem_cat = bytearray()
        self.mem_refs = bytearray()


class CacheLevelProfiler:
    """Implements the L1 (Figure 4.1) and L2 (Figure 4.2) waste FSMs.

    One profiler instance covers every cache unit of a level for the
    whole run; the *active* handle for each ``(unit, word)`` is the most
    recent pending arrival.  The FSM keeps no counters: ``counts()`` is
    the histogram of the level's pool from the window's first handle.
    That is exact.  Verdicts are final, so a window handle counts once;
    ``finalize`` settles every window handle still pending; and a warm-up
    handle, which may still be settled after the mark (its row stays
    active), lies before the window's first handle and is never counted.
    The active rows are lazy (a settled handle acts as an empty slot),
    and a whole line's fill is kept as one int, its first handle.
    """

    def __init__(self, level: str,
                 pools: Optional[WastePools] = None) -> None:
        if level not in ("L1", "L2"):
            raise ValueError("level must be 'L1' or 'L2'")
        self.level = level
        self.pools = pools if pools is not None else WastePools()
        self._cat = (self.pools.l1_cat if level == "L1"
                     else self.pools.l2_cat)
        # Active handles are stored per cache *line*: the key is
        # ``(line << 6) | unit`` (unit ids fit in 6 bits, <= 64 tiles)
        # and the value a row of 16 per-word handles.  Line-granular
        # protocol events then cost one dict operation per line instead
        # of 16, and an int key hashes for free where a tuple would be
        # allocated and hashed on every FSM event.
        #
        # Only a slot's pending handle matters: a settled handle acts as
        # an empty slot in every event, so a word evicted or invalidated
        # alone is settled and its slot left as it is.  A row that
        # ``arrivals_line`` makes is the fill's first handle, one int:
        # the fill's 16 handles are consecutive, slot ``i`` holds the
        # first plus ``i``, and the row settles as one slice of the pool.
        # Every other row is a 16-slot ``array('q')``, NO_HANDLE in an
        # empty slot; a single word arriving into an int row first
        # copies the fill's handles into one.
        self._active: Dict[int, Union[int, array]] = {}
        # First handle of the measurement window.
        self._start = 0

    def mark(self) -> None:
        """Open the measurement window: count handles from here on."""
        self._start = len(self._cat)

    def _row_for(self, line_key: int) -> array:
        """The line's active row as an array, to store a handle in."""
        row = self._active.get(line_key)
        if row is None:
            row = self._active[line_key] = _EMPTY_ROW[:]
        elif row.__class__ is int:
            row = self._active[line_key] = array(
                "q", range(row, row + WORDS_PER_LINE))
        return row

    # -- FSM events --------------------------------------------------------
    def on_arrival(self, unit: int, word: int, already_present: bool) -> int:
        """A word arrived at cache ``unit`` in a response or fill.

        Returns the handle that traffic accounting should reference.  If
        the word was already present the new copy is immediately Fetch
        waste and the previously active handle (if any) stays active.
        """
        cat = self._cat
        handle = len(cat)
        if already_present:
            cat.append(C_FETCH)
            return handle
        cat.append(PENDING)
        row = self._row_for(((word >> 4) << 6) | unit)
        slot = word & 15
        old = row[slot]
        if old >= 0 and cat[old] == PENDING:
            # Defensive: an unclassified copy being silently replaced by a
            # new fill counts as Fetch waste for the old copy.
            cat[old] = C_FETCH
        row[slot] = handle
        return handle

    def on_use(self, unit: int, word: int) -> None:
        """The word was read (L1) or returned in a response (L2)."""
        row = self._active.get(((word >> 4) << 6) | unit)
        if row is None:
            return
        handle = row + (word & 15) if row.__class__ is int else row[word & 15]
        if handle >= 0 and self._cat[handle] == PENDING:
            self._cat[handle] = C_USED

    def on_write(self, unit: int, word: int) -> None:
        """The word was overwritten before being used."""
        row = self._active.get(((word >> 4) << 6) | unit)
        if row is None:
            return
        handle = row + (word & 15) if row.__class__ is int else row[word & 15]
        if handle >= 0 and self._cat[handle] == PENDING:
            self._cat[handle] = C_WRITE

    def on_evict(self, unit: int, word: int) -> None:
        """The word left the cache (its settled handle stays in the row,
        where it acts as an empty slot)."""
        row = self._active.get(((word >> 4) << 6) | unit)
        if row is None:
            return
        handle = row + (word & 15) if row.__class__ is int else row[word & 15]
        if handle >= 0 and self._cat[handle] == PENDING:
            self._cat[handle] = C_EVICT

    def on_invalidate(self, unit: int, word: int) -> None:
        """The word was invalidated (its settled handle stays in the
        row, where it acts as an empty slot)."""
        if self.level == "L2":
            raise RuntimeError("the L2 FSM has no invalidate transition")
        row = self._active.get(((word >> 4) << 6) | unit)
        if row is None:
            return
        handle = row + (word & 15) if row.__class__ is int else row[word & 15]
        if handle >= 0 and self._cat[handle] == PENDING:
            self._cat[handle] = C_INVALIDATE

    # -- bulk line-granular events --------------------------------------
    # One call and one active-dict operation per 16-word line instead of
    # 16; event-for-event identical to looping the scalar methods over
    # ``words_of_line`` (the line protocols do exactly that on every
    # fill/eviction/invalidation, so this was the hottest profiler cost).

    def arrivals_line(self, unit: int, base: int) -> range:
        """``on_arrival(unit, word, False)`` for one full line's words.

        The handles of one line are consecutive, so they are returned as
        a ``range``; the line's new active row is the first of them.
        """
        cat = self._cat
        h0 = len(cat)
        cat.extend(_LINE_PENDING)
        line_key = (base << 2) | unit
        old_row = self._active.get(line_key)
        if old_row is not None:
            self._settle_row(old_row, C_FETCH)
        self._active[line_key] = h0
        return range(h0, h0 + WORDS_PER_LINE)

    def arrivals_words(self, unit: int, words, present_flags) -> range:
        """``on_arrival(unit, w, flag)`` over parallel word/flag lists.

        The words get consecutive handles, returned as a ``range``.
        """
        cat = self._cat
        row_for = self._row_for
        h0 = len(cat)
        last_key = -1
        row = None
        for word, present in zip(words, present_flags):
            if present:
                cat.append(C_FETCH)
                continue
            handle = len(cat)
            cat.append(PENDING)
            line_key = ((word >> 4) << 6) | unit
            if line_key != last_key:
                row = row_for(line_key)
                last_key = line_key
            slot = word & 15
            old = row[slot]
            if old >= 0 and cat[old] == PENDING:
                cat[old] = C_FETCH
            row[slot] = handle
        return range(h0, len(cat))

    def on_use_words(self, unit: int, words) -> None:
        """``on_use(unit, w)`` for every word in ``words``."""
        cat = self._cat
        active = self._active
        last_key = -1
        row = None
        for word in words:
            line_key = ((word >> 4) << 6) | unit
            if line_key != last_key:
                row = active.get(line_key)
                last_key = line_key
            if row is None:
                continue
            handle = (row + (word & 15) if row.__class__ is int
                      else row[word & 15])
            if handle >= 0 and cat[handle] == PENDING:
                cat[handle] = C_USED

    def on_use_line(self, unit: int, base: int) -> None:
        """``on_use`` over one full line's words."""
        row = self._active.get((base << 2) | unit)
        if row is not None:
            self._settle_row(row, C_USED)

    def on_evict_line(self, unit: int, base: int) -> None:
        """``on_evict`` over one full line's words."""
        row = self._active.pop((base << 2) | unit, None)
        if row is not None:
            self._settle_row(row, C_EVICT)

    def on_invalidate_line(self, unit: int, base: int) -> None:
        """``on_invalidate`` over one full line's words."""
        if self.level == "L2":
            raise RuntimeError("the L2 FSM has no invalidate transition")
        row = self._active.pop((base << 2) | unit, None)
        if row is not None:
            self._settle_row(row, C_INVALIDATE)

    def on_invalidate_mask(self, unit: int, base: int, mask: int) -> None:
        """``on_invalidate`` over the words of the line at ``base`` whose
        bits are set in ``mask`` (bit ``i`` is word ``base + i``)."""
        if mask == FULL_MASK:
            self.on_invalidate_line(unit, base)
            return
        if self.level == "L2":
            raise RuntimeError("the L2 FSM has no invalidate transition")
        row = self._active.get((base << 2) | unit)
        if row is None:
            return
        cat = self._cat
        for slot in mask_offsets(mask):
            handle = row + slot if row.__class__ is int else row[slot]
            if handle >= 0 and cat[handle] == PENDING:
                cat[handle] = C_INVALIDATE

    def finalize(self) -> None:
        """Classify all still-resident pending words as Unevicted."""
        for row in self._active.values():
            self._settle_row(row, C_UNEVICTED)
        self._active.clear()

    # -- queries: the window's handles ----------------------------------------
    def category(self, handle: int) -> Optional[Category]:
        """The verdict of ``handle`` (None while it is pending)."""
        return _BY_CODE[self._cat[handle]]

    def count(self, category: Category) -> int:
        return self._cat.count(_CODE[category], self._start)

    def counts(self) -> Dict[Category, int]:
        cat, start = self._cat, self._start
        return {category: cat.count(code, start)
                for category, code in _CODE.items()}

    def total_words(self) -> int:
        return len(self._cat) - self._start

    # -- internals -------------------------------------------------------------
    def _settle_row(self, row: Union[int, array], code: int) -> None:
        """Classify every pending handle of an active row as ``code``."""
        cat = self._cat
        if row.__class__ is int:
            # One fill's consecutive handles (see ``__init__``).
            stop = row + WORDS_PER_LINE
            seg = cat[row:stop]
            if PENDING in seg:
                cat[row:stop] = seg.replace(b"\0", _CODE_BYTE[code])
            return
        for handle in row:
            if handle >= 0 and cat[handle] == PENDING:
                cat[handle] = code


class MemoryProfiler:
    """Implements the memory-level FSM of Figure 4.3.

    Every word read out of DRAM and sent on-chip becomes an instance with a
    unique identifier (its handle).  Instances are classified Used on the
    first load of any on-chip copy; Write when *any* L1 stores to the
    address (all pending instances of that address become Write waste,
    since coherence would invalidate or overwrite every copy);
    Evict/Invalidate when the last on-chip copy disappears; Excess when
    the memory controller drops the word before it ever reaches the
    network.

    Verdicts and copy counts live in the shared pools (instance
    identity); the pending-by-address index and the settle counters
    belong to this profiler, which lives for the whole run.  The index
    is an ``array('i')`` over word addresses ``0 .. span - 1`` (the
    run's regions, laid out densely from word 0): each entry is an
    instance's handle, ``NO_HANDLE``, or a marker for an address with
    several pending instances (possible on the bypass rungs), whose
    handles sit in a set in a side dict.  An address outside the span
    (a profiler built without regions, as unit tests do) is indexed in
    the side dict alone; the array never grows.  A word address of
    2**31 or more raises ``OverflowError`` (trace words hold 30-bit
    addresses, so only a caller's bug makes one).

    The index is lazy, as the cache levels' active rows are: settling an
    instance writes its verdict and nothing else, and a settled handle
    left in the index acts as an empty entry.  Indexing a new instance
    overwrites a settled array entry, and first drops the settled
    handles of its address's spill set; a set left with none goes back
    to the array entry.  So the index needs no instance's address.

    The window rule, which over-counts the window (ROADMAP item 2): the
    window's counts are the settle counters minus their values at
    ``mark()``, so a warm-up instance that a load or a last drop settles
    after the mark is counted in the window, which never fetched it.
    A store after the mark settles, and ``finalize`` counts Unevicted,
    only instances with ``handle >= start`` (the window's first handle):
    a store leaves a pending warm-up instance pending and drops it from
    the index, so a later last drop counts it Evict (or Invalidate),
    not Write, and if nothing settles it no count includes it.  The
    fidelity fix deletes the two ``>= start`` conditions and counts a
    histogram of ``mem_cat`` from the mark, as the cache levels do.
    """

    def __init__(self, pools: Optional[WastePools] = None,
                 span: int = 0) -> None:
        self.pools = pools if pools is not None else WastePools()
        self._cat = self.pools.mem_cat
        self._refs = self.pools.mem_refs
        # Settles since cycle 0, by verdict code, and their values at the
        # window's mark.
        self._counts: List[int] = [0] * len(_BY_CODE)
        self._marked: List[int] = [0] * len(_BY_CODE)
        # First handle of the measurement window.
        self._start = 0
        self._span = span
        self._pending_by_addr = array("i", [NO_HANDLE]) * span
        self._spill: Dict[int, Set[int]] = {}

    def mark(self) -> None:
        """Open the measurement window (see the class docstring)."""
        self._start = len(self._cat)
        self._marked = self._counts[:]

    # -- FSM events --------------------------------------------------------
    def fetch(self, addr: int, l2_has_addr: bool) -> int:
        """A word at ``addr`` was fetched from memory and sent on-chip."""
        if addr >= _ADDR_LIMIT:
            raise _too_wide(addr)
        cat = self._cat
        handle = len(cat)
        self._refs.append(0)
        if l2_has_addr:
            # Figure 4.3: address already present in the L2 => Fetch waste.
            cat.append(C_FETCH)
            self._counts[C_FETCH] += 1
            return handle
        cat.append(PENDING)
        self._index(addr, handle)
        return handle

    def fetch_excess(self, addr: int) -> int:
        """A word read out of DRAM but dropped at the memory controller."""
        if addr >= _ADDR_LIMIT:
            raise _too_wide(addr)
        handle = len(self._cat)
        self._cat.append(C_EXCESS)
        self._refs.append(0)
        self._counts[C_EXCESS] += 1
        return handle

    def install_copy(self, handle: int) -> None:
        """A cache installed a copy of this instance (past 255 copies
        raises ``ValueError``)."""
        self._refs[handle] += 1

    def drop_copy(self, handle: int, *, invalidated: bool) -> None:
        """A cache lost its copy (eviction or invalidation); dropping a
        copy that was never installed raises ``ValueError``."""
        refs = self._refs
        refs[handle] -= 1
        if not refs[handle] and self._cat[handle] == PENDING:
            self._settle_pending(
                handle, C_INVALIDATE if invalidated else C_EVICT)

    def on_load(self, handle: int) -> None:
        if self._cat[handle] == PENDING:
            self._settle_pending(handle, C_USED)

    def on_store_addr(self, addr: int) -> None:
        """Any L1 stored to ``addr``: its pending instances become Write
        (after the mark only the window's; see the class docstring)."""
        if 0 <= addr < self._span:
            by_addr = self._pending_by_addr
            pending = by_addr[addr]
            if pending == NO_HANDLE:
                return
            by_addr[addr] = NO_HANDLE
            handles = (self._spill.pop(addr) if pending == _SPILLED
                       else (pending,))
        else:
            handles = self._spill.pop(addr, ())
        cat = self._cat
        counts = self._counts
        start = self._start
        for handle in handles:
            # Item 2's defect: a warm-up instance stays pending.
            if handle >= start and cat[handle] == PENDING:
                cat[handle] = C_WRITE
                counts[C_WRITE] += 1

    # -- bulk line-granular events --------------------------------------

    def fetch_line(self, base: int) -> range:
        """``fetch(word, False)`` for one full line's words."""
        end = base + WORDS_PER_LINE
        if end > _ADDR_LIMIT:
            raise _too_wide(end - 1)
        cat = self._cat
        h0 = len(cat)
        cat.extend(_LINE_PENDING)
        self._refs.extend(_LINE_PENDING)
        handles = range(h0, h0 + WORDS_PER_LINE)
        by_addr = self._pending_by_addr
        if 0 <= base and end <= self._span:
            entries = by_addr[base:end]
            old = entries[0]
            old_end = old + WORDS_PER_LINE
            # No word of the line is indexed, or only one earlier fill's
            # words, all settled: one slice store.
            if entries == _NO_LINE or (
                    old >= 0 and PENDING not in cat[old:old_end]
                    and entries == array("i", range(old, old_end))):
                by_addr[base:end] = array("i", handles)
                return handles
        index = self._index
        for handle, addr in zip(handles, range(base, end)):
            index(addr, handle)
        return handles

    def install_copies(self, handles) -> None:
        """``install_copy`` for every non-None handle in ``handles``.

        A ``range`` (a fill's line) is one ``translate`` of its counts,
        which raises before changing any if one is already 255.
        """
        refs = self._refs
        if handles.__class__ is range:
            start, stop = handles.start, handles.stop
            seg = refs[start:stop]
            if 255 in seg:
                raise ValueError("a memory instance has 255 on-chip copies")
            refs[start:stop] = seg.translate(_PLUS_ONE)
            return
        for handle in handles:
            if handle is not None:
                refs[handle] += 1

    def drop_copies(self, handles, *, invalidated: bool) -> None:
        """``drop_copy`` for every non-None handle in ``handles``.

        A ``range`` (a fill's line) is one ``translate`` of its counts,
        which raises before changing any if one is already 0; then only
        the words whose count reached 0 are looked at.
        """
        code = C_INVALIDATE if invalidated else C_EVICT
        cat = self._cat
        refs = self._refs
        settle = self._settle_pending
        if handles.__class__ is range:
            start, stop = handles.start, handles.stop
            seg = refs[start:stop]
            if 0 in seg:
                raise ValueError("a memory instance has no on-chip copy "
                                 "to drop")
            seg = refs[start:stop] = seg.translate(_MINUS_ONE)
            off = seg.find(0)
            while off >= 0:
                handle = start + off
                if cat[handle] == PENDING:
                    settle(handle, code)
                off = seg.find(0, off + 1)
            return
        for handle in handles:
            if handle is None:
                continue
            refs[handle] -= 1
            if not refs[handle] and cat[handle] == PENDING:
                settle(handle, code)

    def finalize(self) -> None:
        """Classify every window instance still in the index as
        Unevicted (item 2's defect: a warm-up instance stays pending)."""
        cat = self._cat
        start = self._start
        unevicted = 0
        for handle in self._pending_by_addr:
            if handle >= start and cat[handle] == PENDING:
                cat[handle] = C_UNEVICTED
                unevicted += 1
        for pending in self._spill.values():
            for handle in pending:
                if handle >= start and cat[handle] == PENDING:
                    cat[handle] = C_UNEVICTED
                    unevicted += 1
        self._counts[C_UNEVICTED] += unevicted
        self._span = 0
        self._pending_by_addr = array("i")
        self._spill.clear()

    # -- queries ---------------------------------------------------------
    def category(self, handle: int) -> Optional[Category]:
        """The verdict of ``handle`` (None while it is pending)."""
        return _BY_CODE[self._cat[handle]]

    def count(self, category: Category) -> int:
        code = _CODE[category]
        return self._counts[code] - self._marked[code]

    def counts(self) -> Dict[Category, int]:
        counts, marked = self._counts, self._marked
        return {cat: counts[code] - marked[code]
                for cat, code in _CODE.items()}

    def total_words(self) -> int:
        return len(self._cat) - self._start

    # -- internals ------------------------------------------------------------
    def _index(self, addr: int, handle: int) -> None:
        """Add a pending instance to the pending-by-address index (see
        the class docstring for what a settled handle in it means)."""
        cat = self._cat
        spill = self._spill
        if 0 <= addr < self._span:
            by_addr = self._pending_by_addr
            current = by_addr[addr]
            if current != _SPILLED:
                if current == NO_HANDLE or cat[current] != PENDING:
                    by_addr[addr] = handle
                else:
                    by_addr[addr] = _SPILLED
                    spill[addr] = {current, handle}
                return
            pending = {h for h in spill[addr] if cat[h] == PENDING}
            if not pending:
                del spill[addr]
                by_addr[addr] = handle
                return
        else:
            pending = {h for h in spill.get(addr, ()) if cat[h] == PENDING}
        pending.add(handle)
        spill[addr] = pending

    def _settle_pending(self, handle: int, code: int) -> None:
        """Classify a still-pending instance (callers check that it is
        pending first, so the verdict always lands); the index keeps the
        settled handle, which acts as an empty entry."""
        self._cat[handle] = code
        self._counts[code] += 1
