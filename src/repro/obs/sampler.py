"""Periodic sampling driven off the event queue.

:class:`PhaseSampler` schedules itself on the simulation's
:class:`~repro.engine.events.EventQueue` every ``interval`` cycles and
records three things per sample: the cycle, the events the queue has
executed, and the flits each tile's router has forwarded.  Differences
between consecutive samples are the per-interval event-rate and
traffic curves the Chrome trace and the utilization timeline show.

Sampling is purely observational: a tick reads counters and schedules
nothing but its own successor, so interleaving sample events changes
no simulated timing, traffic or waste.  Each tick does consume one
scheduler event, which the owning session reports as
``overhead_events`` so ``System`` can subtract it from the run's event
count — an observed run stays bit-identical to an unobserved one.

A tick re-arms only while other events are pending, so the sampler can
never keep the queue alive on its own (the queue's drain loop would
otherwise never terminate).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.engine.events import EventQueue


class PhaseSampler:
    """Record cycle, events executed and per-tile flits every N cycles."""

    def __init__(self, queue: EventQueue, tile_flits: Sequence[int],
                 interval: int = 5000) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.queue = queue
        self.tile_flits = tile_flits
        self.interval = interval
        #: One entry per sample: ``{"cycle": int, "events": int,
        #: "tile_flits": [int per tile]}``, all cumulative.
        self.samples: List[Dict[str, object]] = []
        #: Scheduler events consumed by ticks (subtracted from the run's
        #: event count so observed runs match unobserved ones).
        self.ticks = 0
        self._armed = False

    def start(self) -> None:
        """Arm the first tick, ``interval`` cycles from now."""
        if not self._armed:
            self._armed = True
            self.queue.schedule_call(self.queue.now + self.interval,
                                     self._tick)

    def _sample(self) -> Dict[str, object]:
        return {"cycle": self.queue.now, "events": self.queue.events_run,
                "tile_flits": list(self.tile_flits)}

    def sample_now(self) -> None:
        """Record one sample immediately (no scheduler event consumed).

        Used for the final end-of-run sample after the queue drained; it
        replaces a tick sample taken earlier in the same cycle.
        """
        if self.samples and self.samples[-1]["cycle"] == self.queue.now:
            self.samples.pop()
        self.samples.append(self._sample())

    def _tick(self) -> None:
        self.ticks += 1
        self.samples.append(self._sample())
        # Re-arm only while the simulation itself has work left; a
        # sampler that rescheduled unconditionally would keep the drain
        # loop spinning forever after the last real event.
        if self.queue.pending:
            self.queue.schedule_call(self.queue.now + self.interval,
                                     self._tick)
        else:
            self._armed = False
