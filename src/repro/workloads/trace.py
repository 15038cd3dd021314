"""Memory-access trace representation.

Workload generators emit one trace per core.  A trace is a flat
sequence of ops encoded as tuples for speed (a ``Workload`` stores each
trace as a tuple):

* ``(OP_LOAD, word_addr)`` — a load; blocks the core on a miss;
* ``(OP_STORE, word_addr)`` — a store; non-blocking up to buffer limits;
* ``(OP_COMPUTE, cycles)`` — non-memory work (1 cycle per instruction in
  the paper's core model, so this is simply a busy-time advance);
* ``(OP_BARRIER, 0)`` — global barrier (all cores synchronize; DeNovo
  self-invalidates and drains its write-combining table).

``Workload`` bundles per-core traces with the software region table and
the per-phase metadata the protocols consume: the regions written in the
phase ending at each barrier (driving DeNovo self-invalidation) and
per-phase region annotation updates (Flex patterns / bypass flags, the
DPJ-style information software hands to hardware between phases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.regions import FlexPattern, Region, RegionTable

OP_LOAD = 0
OP_STORE = 1
OP_COMPUTE = 2
OP_BARRIER = 3

Op = Tuple[int, int]


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
    reassigned and its traces are tuples), so the results
    ``simulate()`` keeps in ``results`` always describe this workload.
    Build a variant with ``dataclasses.replace``; the copy starts with
    no stored results.
    """

    name: str
    regions: RegionTable
    traces: Tuple[Tuple[Op, ...], ...]
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
    #: simulated run results by behaviour key, kept by
    #: :func:`repro.core.simulator.simulate` for reuse across rungs.
    results: Dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("workload needs at least one core trace")
        traces = tuple(tuple(t) for t in self.traces)
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
    def _barrier_count(trace: Sequence[Op]) -> int:
        return sum(1 for kind, _arg in trace if kind == OP_BARRIER)

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    def total_ops(self) -> int:
        return sum(len(t) for t in self.traces)

    def memory_ops(self) -> int:
        return sum(1 for t in self.traces for kind, _ in t
                   if kind in (OP_LOAD, OP_STORE))

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
    """

    def __init__(self, num_cores: int, regions: RegionTable) -> None:
        self._regions = regions
        self.traces: List[List[Op]] = [[] for _ in range(num_cores)]
        self._phase_written: set = set()
        self.phase_written_regions: List[FrozenSet[int]] = []
        self.phase_region_updates: Dict[int, List[RegionUpdate]] = {}
        self._barriers_emitted = 0

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    def load(self, core: int, addr: int) -> None:
        self.traces[core].append((OP_LOAD, addr))

    def store(self, core: int, addr: int) -> None:
        self.traces[core].append((OP_STORE, addr))
        region = self._regions.find(addr)
        if region is not None:
            self._phase_written.add(region.region_id)

    def compute(self, core: int, cycles: int) -> None:
        if cycles > 0:
            self.traces[core].append((OP_COMPUTE, cycles))

    def barrier(self, updates: Optional[List[RegionUpdate]] = None) -> None:
        """End the current phase on every core."""
        for trace in self.traces:
            trace.append((OP_BARRIER, 0))
        self.phase_written_regions.append(frozenset(self._phase_written))
        if updates:
            self.phase_region_updates[self._barriers_emitted] = list(updates)
        self._phase_written = set()
        self._barriers_emitted += 1

    def build(self, name: str, warmup_barriers: int = 0,
              description: str = "") -> Workload:
        # Ensure a final barrier so the last phase's stores are flushed
        # and self-invalidation state is consistent at end of simulation.
        if any(not t or t[-1][0] != OP_BARRIER for t in self.traces):
            self.barrier()
        return Workload(
            name=name, regions=self._regions, traces=self.traces,
            phase_written_regions=self.phase_written_regions,
            phase_region_updates=self.phase_region_updates,
            warmup_barriers=warmup_barriers, description=description)
