"""Sweep-fleet telemetry: per-cell provenance for every grid run.

:class:`SweepTelemetry` rides the runner's existing ``ProgressFn``
callback (``progress(outcome, done, total)``) and turns the stream of
:class:`~repro.runner.pool.JobOutcome`\\ s — which the runner previously
dropped after collection — into

* a **live progress line** (``printer``): done/total, per-cell wall
  time, cache-hit and reuse markers, retry markers and a wall-clock ETA;
* a **telemetry sidecar** (``write``): one JSON record per cell
  (workload, protocol, shape, store key, simulation seconds, attempts,
  cache hit, the rung a reused result came from, wall-clock completion
  offset) plus fleet summary totals,
  persisted next to the results as ``telemetry.json`` in the result
  store — so bench/perf comparisons can attribute a regression to the
  specific cells that slowed down.

The per-cell ``wall_s`` completion offsets double as the fleet
heartbeat: a stalled worker shows up as a growing gap between
``heartbeat_wall_s`` and the current time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Bump when the sidecar layout changes incompatibly.
SCHEMA_VERSION = 1


class SweepTelemetry:
    """Collects ``JobOutcome`` streams into live progress + a sidecar."""

    def __init__(self, command: str = "sweep",
                 clock=time.perf_counter, wall=time.time) -> None:
        self.command = command
        self._clock = clock
        self._wall = wall
        self._start = clock()
        self.started_at = wall()
        self.cells: List[Dict[str, object]] = []
        self.total: Optional[int] = None
        self.done = 0
        self.cache_hits = 0
        self.attempts = 0
        self.sim_seconds = 0.0

    # -- collection -----------------------------------------------------
    def record(self, outcome, done: int, total: int) -> Dict[str, object]:
        """Fold one completed cell in; returns its sidecar record."""
        spec = outcome.spec
        self.total = total
        self.done = done
        self.attempts += outcome.attempts
        self.sim_seconds += outcome.elapsed
        if outcome.from_cache:
            self.cache_hits += 1
        cell = {
            "workload": spec.workload,
            "protocol": spec.protocol,
            "num_tiles": spec.num_tiles,
            "seed": spec.seed,
            "store_key": spec.store_key(),
            "elapsed_s": round(outcome.elapsed, 4),
            "attempts": outcome.attempts,
            "from_cache": outcome.from_cache,
            # Duck-typed outcomes may not carry the field.
            "reused_from": getattr(outcome, "reused_from", None),
            "wall_s": round(self._clock() - self._start, 4),
        }
        self.cells.append(cell)
        return cell

    def progress(self, outcome, done: int, total: int) -> None:
        """A silent ``ProgressFn``: collect without printing."""
        self.record(outcome, done, total)

    def printer(self, out):
        """A ``ProgressFn`` that collects *and* prints a live line."""
        def progress(outcome, done: int, total: int) -> None:
            cell = self.record(outcome, done, total)
            status = outcome.status()
            retried = (f"  (attempt {cell['attempts']})"
                       if cell["attempts"] > 1 else "")
            eta = self.eta_seconds()
            eta_s = f"  eta {eta:5.1f}s" if eta is not None else ""
            print(f"[{done:3d}/{total}] {cell['workload']:<14s} "
                  f"{cell['protocol']:<12s} {cell['num_tiles']:3d}t "
                  f"{status:>7s}{retried}{eta_s}", file=out, flush=True)
        return progress

    # -- fleet state ----------------------------------------------------
    def wall_seconds(self) -> float:
        return self._clock() - self._start

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the remaining cells (None when done).

        Based on mean wall time per completed cell, which absorbs both
        cache hits and parallelism without modelling either.
        """
        if not self.done or self.total is None:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return None
        return self.wall_seconds() / self.done * remaining

    def heartbeat_wall_s(self) -> float:
        """Wall offset of the most recent completion (fleet liveness)."""
        return self.cells[-1]["wall_s"] if self.cells else 0.0

    # -- sidecar --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "started_at": round(self.started_at, 3),
            "total_cells": self.total if self.total is not None else 0,
            "completed_cells": self.done,
            "cache_hits": self.cache_hits,
            "attempts": self.attempts,
            "sim_seconds": round(self.sim_seconds, 4),
            "wall_seconds": round(self.wall_seconds(), 4),
            "heartbeat_wall_s": self.heartbeat_wall_s(),
            "cells": self.cells,
        }

    def write(self, path) -> Path:
        """Persist the sidecar (atomically, like the result store)."""
        import os
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(self.to_dict(), indent=1) + "\n")
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path


def load_telemetry(path) -> dict:
    """Read a telemetry sidecar back (for reconciliation/tools)."""
    with open(path) as fh:
        return json.load(fh)
