"""Software region model (DPJ-style annotations).

DeNovo relies on software-supplied *regions*: every load and store carries
the region id of the data it touches.  Regions also carry the two kinds of
annotation the paper's optimizations consume:

* **Flex communication regions** (Section 2): for array-of-struct data, the
  set of word offsets inside each struct element that the current phase
  actually uses.  A Flex-capable responder returns exactly those words
  (possibly spanning cache lines), up to the 64-byte packet payload limit.
* **L2 bypass** (Section 3.1): regions whose data should not be allocated
  in (or, with request bypass, even looked up in) the L2.

``RegionTable`` is the hardware-visible table each cache controller holds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.addressing import WORDS_PER_LINE, align_up_words, line_of

#: Sentinel for "no change" in RegionTable.update.
_UNSET = object()


@dataclass(frozen=True)
class FlexPattern:
    """Communication region for an array-of-structs region.

    ``stride_words`` is the size of one struct element in words;
    ``field_offsets`` are the word offsets within an element that the
    current phase uses.  Flex responses gather exactly those words for the
    element containing the missing address (plus, when prefetching, the
    following elements that fit in one packet).
    """

    stride_words: int
    field_offsets: Tuple[int, ...]
    prefetch_elements: int = 0   # extra sequential elements to gather

    def __post_init__(self) -> None:
        if self.stride_words <= 0:
            raise ValueError("stride must be positive")
        bad = [o for o in self.field_offsets if not 0 <= o < self.stride_words]
        if bad:
            raise ValueError(f"field offsets {bad} outside stride")
        if len(set(self.field_offsets)) != len(self.field_offsets):
            raise ValueError("duplicate field offsets")

    def element_index(self, region_offset: int) -> int:
        """Element number containing ``region_offset`` (words from base)."""
        return region_offset // self.stride_words

    def words_for_element(self, region_base: int, element: int) -> List[int]:
        """Word addresses of the used fields of ``element``."""
        elem_base = region_base + element * self.stride_words
        return [elem_base + off for off in self.field_offsets]


@dataclass(frozen=True)
class Region:
    """A contiguous software region of the address space.

    ``base_word`` .. ``base_word + size_words`` (exclusive).  ``bypass_l2``
    marks the region for the L2 response/request bypass optimizations;
    ``flex`` supplies the communication-region pattern when the region is an
    array of structs whose phase uses only some fields.
    """

    region_id: int
    name: str
    base_word: int
    size_words: int
    bypass_l2: bool = False
    flex: Optional[FlexPattern] = None

    def __post_init__(self) -> None:
        if self.size_words <= 0:
            raise ValueError("region must be non-empty")
        if self.base_word < 0:
            raise ValueError("region base must be non-negative")

    @property
    def end_word(self) -> int:
        return self.base_word + self.size_words

    def contains(self, word_addr: int) -> bool:
        return self.base_word <= word_addr < self.end_word

    def flex_words(self, word_addr: int, max_words: int) -> List[int]:
        """Words a Flex response would gather for a miss on ``word_addr``.

        Returns the used fields of the element containing the address,
        then (if the pattern prefetches) fields of subsequent elements,
        truncated to ``max_words`` and clipped to the region bounds.
        """
        if self.flex is None:
            raise ValueError(f"region {self.name} has no flex pattern")
        rel = word_addr - self.base_word
        if rel < 0 or rel >= self.size_words:
            raise ValueError("address outside region")
        first = self.flex.element_index(rel)
        end = self.end_word
        words: List[int] = []
        last_element = (self.size_words - 1) // self.flex.stride_words
        for element in range(first, min(first + 1 + self.flex.prefetch_elements,
                                        last_element + 1)):
            for word in self.flex.words_for_element(self.base_word, element):
                if word >= end:
                    continue
                words.append(word)
                if len(words) == max_words:
                    return words
        return words


class RegionTable:
    """Region lookup table held by every cache controller.

    Regions may not overlap.  Lookups by address bisect a list of the
    sorted region bases and read the parallel list of their ends (base
    and size never change, so only :meth:`add` rebuilds the two lists);
    lookups by id are direct.  The table counts the
    regions that carry a Flex pattern and those marked ``bypass_l2``,
    through every :meth:`update`, so an annotation lookup on a table
    without that annotation returns at once.
    """

    def __init__(self, regions: Iterable[Region] = ()) -> None:
        self._by_id: Dict[int, Region] = {}
        self._sorted: List[Region] = []
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._n_flex = 0
        self._n_bypass = 0
        for region in regions:
            self.add(region)

    def _count(self, region: Region, sign: int) -> None:
        self._n_flex += sign * (region.flex is not None)
        self._n_bypass += sign * bool(region.bypass_l2)

    def add(self, region: Region) -> None:
        if region.region_id in self._by_id:
            raise ValueError(f"duplicate region id {region.region_id}")
        for other in self._sorted:
            if (region.base_word < other.end_word
                    and other.base_word < region.end_word):
                raise ValueError(
                    f"region {region.name} overlaps {other.name}")
        self._by_id[region.region_id] = region
        self._sorted.append(region)
        self._sorted.sort(key=lambda r: r.base_word)
        # New lists, not in-place edits: clones share them.
        self._bases = [r.base_word for r in self._sorted]
        self._ends = [r.end_word for r in self._sorted]
        self._count(region, 1)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._sorted)

    def __eq__(self, other) -> bool:
        """Tables holding the same regions, compared in address order."""
        if isinstance(other, RegionTable):
            return self._sorted == other._sorted
        return NotImplemented

    def get(self, region_id: int) -> Optional[Region]:
        return self._by_id.get(region_id)

    def find(self, word_addr: int) -> Optional[Region]:
        """Region containing ``word_addr``, or None."""
        i = bisect_right(self._bases, word_addr) - 1
        if i >= 0 and word_addr < self._ends[i]:
            return self._sorted[i]
        return None

    def clone(self) -> "RegionTable":
        """Shallow copy (regions are immutable) for per-run annotation state."""
        out = RegionTable()
        out._by_id = dict(self._by_id)
        out._sorted = list(self._sorted)
        out._bases = self._bases
        out._ends = self._ends
        out._n_flex = self._n_flex
        out._n_bypass = self._n_bypass
        return out

    def update(self, region_id: int, *, flex=_UNSET, bypass_l2=_UNSET) -> Region:
        """Replace a region's software annotations (phase boundary).

        Base address and size are immutable; only the DPJ-style metadata
        (Flex pattern, bypass flag) may change between phases.
        """
        from dataclasses import replace as _replace

        old = self._by_id[region_id]
        changes = {}
        if flex is not _UNSET:
            changes["flex"] = flex
        if bypass_l2 is not _UNSET:
            changes["bypass_l2"] = bypass_l2
        if not changes:
            return old
        new = _replace(old, **changes)
        self._by_id[region_id] = new
        self._sorted[self._sorted.index(old)] = new
        self._count(old, -1)
        self._count(new, 1)
        return new

    def should_bypass(self, word_addr: int) -> bool:
        if not self._n_bypass:
            return False
        region = self.find(word_addr)
        return region is not None and region.bypass_l2

    def flex_region_for(self, word_addr: int) -> Optional[Region]:
        if not self._n_flex:
            return None
        region = self.find(word_addr)
        if region is not None and region.flex is not None:
            return region
        return None


class RegionAllocator:
    """Sequential allocator that lays regions out line-aligned.

    Workload generators use this to build their address maps; line
    alignment mirrors the paper's aligned data structures (e.g. the
    aligned LU variant that removes false sharing).
    """

    def __init__(self, start_word: int = 0) -> None:
        self._next_word = start_word
        self._next_id = 0
        self.table = RegionTable()

    def alloc(self, name: str, size_words: int, *, bypass_l2: bool = False,
              flex: Optional[FlexPattern] = None) -> Region:
        # Every region starts on a line, so no line holds words of two
        # regions: DeNovo looks regions up per line.
        base = align_up_words(self._next_word, WORDS_PER_LINE)
        region = Region(
            region_id=self._next_id, name=name, base_word=base,
            size_words=size_words, bypass_l2=bypass_l2, flex=flex)
        self.table.add(region)
        self._next_id += 1
        self._next_word = base + size_words
        return region
