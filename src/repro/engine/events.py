"""Discrete-event simulation core.

A single event queue drives the whole simulated machine.  Components
schedule callbacks at absolute cycle times; ties are broken by insertion
order so the simulation is fully deterministic.

The scheduler is allocation-light: its one entry point,
:meth:`EventQueue.schedule_call`, takes a callable plus its arguments
and stores them directly in the queue entry, so hot callers pass bound
methods instead of allocating a closure per event.

Determinism contract
--------------------

Events fire in ``(when, seq)`` order, where ``seq`` is the global
schedule-call counter — identical streams of schedule calls produce
identical execution orders.  Heap entries are ``(when, seq, fn, args)``
tuples; the contract is enforced by tuple comparison.
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, List, Optional, Tuple


class EventQueue:
    """Deterministic discrete-event scheduler keyed by cycle time."""

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        # Heap entries are (when, seq, fn, args); comparisons never
        # reach fn/args because seq is unique.
        self._heap: List[tuple] = []
        self._seq = 0
        self.now = 0

    def schedule_call(self, when: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute cycle ``when`` (>= now).

        No closure per event: the bound method and its arguments sit
        in the heap entry.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule event in the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; return the final simulation time.

        ``max_events`` bounds the *total* number of callbacks executed
        across all ``run`` calls on this queue and exists purely as a
        safety net against protocol livelock bugs; ``None`` means no
        bound.  The loop counts a plain integer down.
        """
        heap = self._heap
        pop = heapq.heappop
        remaining = (sys.maxsize if max_events is None
                     else max_events - self.events_run)
        while heap and remaining > 0:
            when, _seq, fn, args = pop(heap)
            self.now = when
            remaining -= 1
            fn(*args)
            # Same-cycle batch drain: events landing on the current
            # cycle skip the clock update.
            while remaining > 0 and heap and heap[0][0] == when:
                _w, _seq, fn, args = pop(heap)
                remaining -= 1
                fn(*args)
        if heap:
            raise RuntimeError(
                f"event budget exhausted after {self.events_run} events "
                f"at cycle {self.now}; likely a protocol livelock")
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        """Callbacks executed so far: every scheduled entry leaves the
        heap only through the pop in :meth:`run`."""
        return self._seq - len(self._heap)


#: Barrier communication cycles between the last arrival and the release.
BARRIER_RELEASE_COST = 50


class Barrier:
    """All-core barrier synchronization.

    Cores call :meth:`arrive` with a continuation; once every participant
    has arrived, all continuations are released at the same cycle (plus a
    fixed communication cost, :data:`BARRIER_RELEASE_COST` on the
    simulated machine).  ``on_release`` hooks let
    protocols attach barrier-time work (DeNovo self-invalidation,
    Bloom-filter clears).
    """

    def __init__(self, queue: EventQueue, participants: int,
                 release_cost: int = BARRIER_RELEASE_COST) -> None:
        if participants <= 0:
            raise ValueError("need at least one participant")
        self._queue = queue
        self._participants = participants
        self._release_cost = release_cost
        self._waiting: List[Tuple[int, Callable[[int], None]]] = []
        self._on_release: List[Callable[[], None]] = []
        self.barriers_passed = 0

    def on_release(self, hook: Callable[[], None]) -> None:
        """Register a hook run once per barrier, before cores resume."""
        self._on_release.append(hook)

    def arrive(self, core_id: int, resume: Callable[[int], None]) -> None:
        """Core ``core_id`` arrived; ``resume(release_time)`` is called
        once everyone is here."""
        self._waiting.append((core_id, resume))
        if len(self._waiting) < self._participants:
            return
        waiting, self._waiting = self._waiting, []
        self.barriers_passed += 1
        release_time = self._queue.now + self._release_cost
        self._queue.schedule_call(release_time, self._release, waiting,
                                  release_time)

    def _release(self, waiting: List[Tuple[int, Callable[[int], None]]],
                 release_time: int) -> None:
        for hook in self._on_release:
            hook()
        for _cid, resume_fn in waiting:
            resume_fn(release_time)
