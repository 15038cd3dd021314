"""Structured simulation tracing in Chrome trace-event format.

:class:`SimTrace` is an opt-in ring-buffer tracer.  Instrumentation
hooks record *spans* (named intervals: barrier phases, DRAM bank
activity) and *flows* linking them, in simulated-cycle time;
:meth:`SimTrace.chrome` serializes the buffer as the Chrome
trace-event JSON format, so ``trace.json`` loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Cycle timestamps
are emitted as-is in the ``ts``/``dur`` microsecond fields — 1 µs on
the timeline reads as 1 simulated cycle.

The buffer is bounded (oldest events drop first, ``dropped`` counts
them) so tracing a long run cannot exhaust memory; tracks ("threads"
in the Chrome model) are named lazily via :meth:`track` and labelled
with metadata events at export time.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import List, Optional

#: Chrome trace-event JSON "process" id used for all simulator tracks.
TRACE_PID = 0


class SimTrace:
    """Bounded buffer of Chrome-trace events keyed by simulated cycles."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._events: "deque[dict]" = deque(maxlen=capacity)
        self._tracks: "OrderedDict[str, int]" = OrderedDict()
        self.dropped = 0

    # -- tracks ---------------------------------------------------------
    def track(self, name: str) -> int:
        """Stable integer tid for a named track (created on first use)."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = self._tracks[name] = len(self._tracks)
        return tid

    # -- recording ------------------------------------------------------
    def _append(self, event: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def complete(self, name: str, cat: str, ts: int, dur: int,
                 track: str = "sim", args: Optional[dict] = None) -> None:
        """One complete span (``ph: "X"``): ``[ts, ts + dur)`` cycles."""
        event = {"name": name, "cat": cat, "ph": "X", "ts": ts,
                 "dur": max(dur, 0), "pid": TRACE_PID,
                 "tid": self.track(track)}
        if args:
            event["args"] = args
        self._append(event)

    def flow(self, name: str, cat: str, ts: int, flow_id: int,
             track: str = "sim", phase: str = "s") -> None:
        """One flow event linking spans that share ``flow_id``.

        ``phase`` is ``"s"`` (start), ``"t"`` (step) or ``"f"`` (end),
        Chrome's flow-event phases.  Perfetto binds a flow event to the
        slice at the same ``ts`` on the same track, so emit it alongside
        the :meth:`complete` span it annotates; matching (name, cat,
        id) triples render as arrows between the linked slices.
        """
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, not {phase!r}")
        event = {"name": name, "cat": cat, "ph": phase, "ts": ts,
                 "pid": TRACE_PID, "tid": self.track(track), "id": flow_id}
        if phase == "f":
            event["bp"] = "e"   # bind the end to the enclosing slice
        self._append(event)

    # -- export ---------------------------------------------------------
    def events(self) -> List[dict]:
        """Buffered events in monotonically non-decreasing ``ts`` order.

        Hooks record spans at *completion* time, so buffer order is not
        timestamp order; the export contract (and the round-trip test)
        is sorted-by-ts.
        """
        return sorted(self._events, key=lambda e: e["ts"])

    def chrome(self, other_data: Optional[dict] = None) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        metadata: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": TRACE_PID,
            "args": {"name": "repro-sim"},
        }]
        for track_name, tid in self._tracks.items():
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                "tid": tid, "args": {"name": track_name},
            })
            # Keep Perfetto's track order equal to creation order.
            metadata.append({
                "name": "thread_sort_index", "ph": "M", "pid": TRACE_PID,
                "tid": tid, "args": {"sort_index": tid},
            })
        other = {"clock": "simulated cycles (1 cycle rendered as 1 us)",
                 "dropped_events": self.dropped}
        if other_data:
            other.update(other_data)
        return {"traceEvents": metadata + self.events(),
                "displayTimeUnit": "ms",
                "otherData": other}

    def __len__(self) -> int:
        return len(self._events)
