"""Discrete-event simulation core.

A single event queue drives the whole simulated machine.  Components
schedule callbacks at absolute cycle times; ties are broken by insertion
order so the simulation is fully deterministic.

The scheduler is allocation-light: the fast path is
:meth:`EventQueue.schedule_call`, which takes a callable plus its
arguments and stores them directly in the queue entry, so hot callers
pass bound methods instead of allocating a closure per event.  The
legacy :meth:`EventQueue.schedule` (zero-argument callback) is the same
entry point with an empty argument tuple.

Determinism contract
--------------------

Events fire in ``(when, seq)`` order, where ``seq`` is the global
schedule-call counter — identical streams of schedule calls produce
identical execution orders, whichever of the two entry points each
caller used.  Heap entries are ``(when, seq, fn, args)`` tuples; the
contract is enforced by tuple comparison.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Shared empty argument tuple for legacy zero-argument callbacks.
_NO_ARGS: Tuple = ()


class EventQueue:
    """Deterministic discrete-event scheduler keyed by cycle time."""

    __slots__ = ("_heap", "_seq", "now", "_events_run")

    def __init__(self) -> None:
        # Heap entries are (when, seq, fn, args); comparisons never
        # reach fn/args because seq is unique.
        self._heap: List[tuple] = []
        self._seq = 0
        self.now = 0
        self._events_run = 0

    def schedule_call(self, when: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute cycle ``when`` (>= now).

        The allocation-light fast path: no closure per event, just the
        bound method and its arguments in the heap entry.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule event in the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def schedule(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute cycle ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule event in the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, callback, _NO_ARGS))
        self._seq += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, callback)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; return the final simulation time.

        ``max_events`` bounds the *total* number of callbacks executed
        across all ``run`` calls on this queue and exists purely as a
        safety net against protocol livelock bugs.  The unbounded path
        carries no budget comparison at all; the bounded path counts a
        plain integer down instead of comparing against infinity.
        """
        heap = self._heap
        pop = heapq.heappop
        events_run = self._events_run
        try:
            if max_events is None:
                # Unbounded: no budget check on the hot loop.
                while heap:
                    when, _seq, fn, args = pop(heap)
                    self.now = when
                    events_run += 1
                    fn(*args)
                    # Same-cycle batch drain: events landing on the
                    # current cycle skip the clock update.
                    while heap and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
                        events_run += 1
                        fn(*args)
                return self.now
            remaining = max_events - events_run
            while heap and remaining > 0:
                when, _seq, fn, args = pop(heap)
                self.now = when
                events_run += 1
                remaining -= 1
                fn(*args)
                while remaining > 0 and heap and heap[0][0] == when:
                    _w, _seq, fn, args = pop(heap)
                    events_run += 1
                    remaining -= 1
                    fn(*args)
        finally:
            self._events_run = events_run
        if heap:
            raise RuntimeError(
                f"event budget exhausted after {events_run} events "
                f"at cycle {self.now}; likely a protocol livelock")
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        return self._events_run

    def register_metrics(self, hub) -> None:
        """Register scheduler counters into a ``repro.obs`` hub
        (pull-based; called only when observability is enabled)."""
        hub.add_pull("engine_events", lambda q=self: q._events_run,
                     help="events executed by the scheduler")
        hub.add_pull("engine_pending", lambda q=self: q.pending,
                     kind="gauge", help="events waiting in the queue")


class Barrier:
    """All-core barrier synchronization.

    Cores call :meth:`arrive` with a continuation; once every participant
    has arrived, all continuations are released at the same cycle (plus a
    fixed communication cost — ``System`` threads this in from
    ``SystemConfig.barrier_release_cost``).  ``on_release`` hooks let
    protocols attach barrier-time work (DeNovo self-invalidation,
    Bloom-filter clears).
    """

    def __init__(self, queue: EventQueue, participants: int,
                 release_cost: int = 50) -> None:
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

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)
