"""Memory-access trace representation.

Workload generators emit one trace per core.  A trace is a flat
sequence of ``(kind, arg)`` ops:

* ``(OP_LOAD, word_addr)`` — a load; blocks the core on a miss;
* ``(OP_STORE, word_addr)`` — a store; non-blocking up to buffer limits;
* ``(OP_COMPUTE, cycles)`` — non-memory work (1 cycle per instruction in
  the paper's core model, so this is simply a busy-time advance);
* ``(OP_BARRIER, 0)`` — global barrier (all cores synchronize; DeNovo
  self-invalidates and drains its write-combining table).

Encoding: each op is stored as one unsigned 32-bit word (native byte
order), ``arg << 2 | kind``.  The four kinds fill the low two bits
exactly, so ``word & 3`` is the kind and ``word >> 2`` the argument,
which must lie in ``0 .. MAX_ARG`` (2**30 - 1: word addresses are
32-bit already, and the regions are laid out from word 0).
:class:`TraceBuilder` appends words straight into an ``array('I')`` per
core, and a :class:`Workload` holds each trace as an immutable
:class:`PackedTrace` (4 bytes per op, where a ``(kind, arg)`` tuple
takes about 96).
Reading a ``PackedTrace`` yields the decoded ``(kind, arg)`` pairs; the
core model reads the raw words through :attr:`PackedTrace.words`.  A
workload given plain ``(kind, arg)`` sequences packs them once at
construction, rejecting a bad op there rather than mid-run.

``Workload`` bundles per-core traces with the software region table and
the per-phase metadata the protocols consume: the regions written in the
phase ending at each barrier (driving DeNovo self-invalidation) and
per-phase region annotation updates (Flex patterns / bypass flags, the
DPJ-style information software hands to hardware between phases).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.common.regions import FlexPattern, Region, RegionTable

OP_LOAD = 0
OP_STORE = 1
OP_COMPUTE = 2
OP_BARRIER = 3

Op = Tuple[int, int]

#: Low bits of a packed word that hold the op kind.
KIND_BITS = 2
KIND_MASK = (1 << KIND_BITS) - 1
#: Largest argument an unsigned 32-bit word holds above the kind bits.
MAX_ARG = (1 << (32 - KIND_BITS)) - 1
#: Array type code of a packed word, and its size in bytes.
WORD_TYPE = "I"
WORD_BYTES = array(WORD_TYPE).itemsize

_ARG_NAMES = {OP_LOAD: "address", OP_STORE: "address",
              OP_COMPUTE: "compute count", OP_BARRIER: "barrier argument"}


class PackedTrace(Sequence[Op]):
    """One core's trace: an immutable buffer of packed op words.

    Indexing and iteration decode each word to a ``(kind, arg)`` pair;
    :attr:`words` exposes the raw words.  Traces with equal words
    compare equal.
    """

    __slots__ = ("_buf",)

    def __init__(self, words: Union[bytes, array, memoryview]) -> None:
        buf = bytes(words)
        if len(buf) % WORD_BYTES:
            raise ValueError(
                f"packed trace of {len(buf)} bytes is not whole "
                f"{WORD_BYTES}-byte words")
        self._buf = buf

    @property
    def words(self) -> memoryview:
        """The raw ``arg << 2 | kind`` words, read-only."""
        return memoryview(self._buf).cast(WORD_TYPE)

    def __len__(self) -> int:
        return len(self._buf) // WORD_BYTES

    def __getitem__(self, index: int) -> Op:
        word = self.words[index]
        return word & KIND_MASK, word >> KIND_BITS

    def __iter__(self) -> Iterator[Op]:
        for word in self.words:
            yield word & KIND_MASK, word >> KIND_BITS

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedTrace):
            return self._buf == other._buf
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedTrace(<{len(self)} ops>)"


def _bad_op(core: int, index: int, kind: int, arg: int) -> ValueError:
    if kind not in _ARG_NAMES:
        problem = f"unknown op kind {kind}"
    elif arg < 0:
        problem = f"negative {_ARG_NAMES[kind]} {arg}"
    else:
        problem = f"{_ARG_NAMES[kind]} {arg} exceeds {MAX_ARG}"
    return ValueError(f"core {core}, op {index}: {problem}")


def pack(ops: Iterable[Op], core: int = 0) -> PackedTrace:
    """Pack ``(kind, arg)`` ops; a bad op raises ``ValueError`` naming
    ``core`` and the op's index."""
    words = array(WORD_TYPE)
    append = words.append
    for index, (kind, arg) in enumerate(ops):
        if kind not in _ARG_NAMES or not 0 <= arg <= MAX_ARG:
            raise _bad_op(core, index, kind, arg)
        append(arg << KIND_BITS | kind)
    return PackedTrace(words)


def _checked(core: int, trace) -> PackedTrace:
    """``trace`` as a :class:`PackedTrace`: sequences of ops are packed
    (every unsigned word already encodes a valid op)."""
    if not isinstance(trace, PackedTrace):
        return pack(trace, core)
    return trace


@dataclass(frozen=True)
class RegionUpdate:
    """A software annotation change applied at a phase boundary."""

    region_id: int
    flex: Optional[FlexPattern] = None
    bypass_l2: Optional[bool] = None


@dataclass(frozen=True)
class Workload:
    """A complete multi-core workload: traces plus software metadata.

    A workload cannot change after construction (its fields cannot be
    reassigned and each trace is an immutable :class:`PackedTrace`;
    ``traces`` given as ``(kind, arg)`` sequences are packed here, and
    a bad op raises ``ValueError``), so the results
    ``simulate()`` keeps in ``results`` always describe this workload.
    Build a variant with ``dataclasses.replace``; the copy starts with
    no stored results.
    """

    name: str
    regions: RegionTable
    traces: Tuple[PackedTrace, ...]
    #: regions written during the phase that ends at barrier *i* — DeNovo
    #: self-invalidates valid words of these regions at that barrier.
    phase_written_regions: Tuple[FrozenSet[int], ...] = ()
    #: annotation updates applied when barrier *i* releases.
    phase_region_updates: Dict[int, List[RegionUpdate]] = field(
        default_factory=dict)
    #: barriers to treat as the end of warm-up (stats reset); 0 disables.
    warmup_barriers: int = 0
    description: str = ""
    num_barriers: int = field(init=False, repr=False, compare=False)
    #: simulated runs by (rung, machine): each run's result and the
    #: flags that acted in it, kept by
    #: :func:`repro.core.simulator.simulate` for reuse across rungs.
    results: Dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("workload needs at least one core trace")
        traces = tuple(_checked(core, trace)
                       for core, trace in enumerate(self.traces))
        counts = {self._barrier_count(t) for t in traces}
        if len(counts) != 1:
            raise ValueError(f"cores disagree on barrier count: {counts}")
        num_barriers = counts.pop()
        # Pad with empty sets: phases with no writes invalidate nothing.
        written = tuple(self.phase_written_regions)
        written += (frozenset(),) * (num_barriers - len(written))
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "num_barriers", num_barriers)
        object.__setattr__(self, "phase_written_regions", written)

    @staticmethod
    def _barrier_count(trace: PackedTrace) -> int:
        return sum(1 for word in trace.words
                   if word & KIND_MASK == OP_BARRIER)

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    def written_regions_at(self, barrier_index: int) -> FrozenSet[int]:
        if barrier_index < len(self.phase_written_regions):
            return self.phase_written_regions[barrier_index]
        return frozenset()

    def updates_at(self, barrier_index: int) -> List[RegionUpdate]:
        return self.phase_region_updates.get(barrier_index, [])


class TraceBuilder:
    """Convenience builder for per-core traces with phase tracking.

    Tracks which regions were written in the current phase across all
    cores, so the generator does not have to maintain that set by hand.
    ``traces`` holds each core's packed words as an ``array('I')``;
    ``PackedTrace(tb.traces[core])`` reads them as ops.  :meth:`build`
    packs and releases them, leaving ``traces`` empty.  An op whose
    argument does not fit a word raises the ``ValueError`` that
    :func:`pack` gives, naming the core and the op.
    """

    def __init__(self, num_cores: int, regions: RegionTable) -> None:
        self._regions = regions
        self.traces: List[array] = [array(WORD_TYPE)
                                    for _ in range(num_cores)]
        self._phase_written: set = set()
        self.phase_written_regions: List[FrozenSet[int]] = []
        self.phase_region_updates: Dict[int, List[RegionUpdate]] = {}
        self._barriers_emitted = 0

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    # Each append is inlined in its op's method (trace builds make
    # millions of calls); an op that does not fit a word overflows.

    def load(self, core: int, addr: int) -> None:
        trace = self.traces[core]
        try:
            trace.append(addr << KIND_BITS | OP_LOAD)
        except OverflowError:
            raise _bad_op(core, len(trace), OP_LOAD, addr) from None

    def store(self, core: int, addr: int) -> None:
        trace = self.traces[core]
        try:
            trace.append(addr << KIND_BITS | OP_STORE)
        except OverflowError:
            raise _bad_op(core, len(trace), OP_STORE, addr) from None
        region = self._regions.find(addr)
        if region is not None:
            self._phase_written.add(region.region_id)

    def compute(self, core: int, cycles: int) -> None:
        if cycles > 0:
            trace = self.traces[core]
            try:
                trace.append(cycles << KIND_BITS | OP_COMPUTE)
            except OverflowError:
                raise _bad_op(core, len(trace), OP_COMPUTE,
                              cycles) from None

    def barrier(self, updates: Optional[List[RegionUpdate]] = None) -> None:
        """End the current phase on every core."""
        for trace in self.traces:
            trace.append(OP_BARRIER)
        self.phase_written_regions.append(frozenset(self._phase_written))
        if updates:
            self.phase_region_updates[self._barriers_emitted] = list(updates)
        self._phase_written = set()
        self._barriers_emitted += 1

    def build(self, name: str, warmup_barriers: int = 0,
              description: str = "") -> Workload:
        # Ensure a final barrier so the last phase's stores are flushed
        # and self-invalidation state is consistent at end of simulation.
        if any(not t or t[-1] & KIND_MASK != OP_BARRIER
               for t in self.traces):
            self.barrier()
        # Drop each core's array as soon as it is packed, so the build
        # never holds every trace twice.
        arrays, self.traces = self.traces, []
        packed = []
        while arrays:
            packed.append(PackedTrace(arrays.pop(0)))
        return Workload(
            name=name, regions=self._regions, traces=packed,
            phase_written_regions=self.phase_written_regions,
            phase_region_updates=self.phase_region_updates,
            warmup_barriers=warmup_barriers, description=description)
