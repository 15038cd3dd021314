"""One observed simulation: sampler + tracer + attribution, on a System.

:class:`ObsSession` is the opt-in front door of the observability
subsystem.  Pass one to :func:`repro.core.simulator.simulate` (or
``System(..., obs=session)``) and it

* counts the flits each tile's router forwards (link-source
  attribution) by rebinding the traffic ledger's route and
  packet-count hooks;
* arms a :class:`~repro.obs.sampler.PhaseSampler` that records the
  cycle, the events executed and those per-tile flits every
  ``sample_interval`` cycles;
* attaches an :class:`~repro.obs.attrib.AttribCollector` (latency and
  stall attribution, the ``repro stalls`` payload);
* installs tracing hooks — barrier-phase spans and per-bank DRAM
  activity spans — into a :class:`~repro.obs.trace.SimTrace` ring
  buffer, exported with the sampled counter tracks as Chrome
  trace-event JSON via :meth:`export`.

**Zero overhead when disabled** is structural: with ``obs=None`` (the
default everywhere) none of this code runs, no hook is installed and
no hot-path branch exists.  When enabled, the hooks ride existing
extension points (``Barrier.on_release``, the DRAM ``on_service``
callback, rebinding the ledger's route and packet-count hooks), and sampling
events are pure reads — so an observed run produces a ``RunResult``
bit-identical to an unobserved one (the sampler's own scheduler events
are subtracted from the event count by ``System``).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.obs.attrib import AttribCollector
from repro.obs.sampler import PhaseSampler
from repro.obs.trace import SimTrace


class TileFlits(Sequence):
    """Flits forwarded by each tile's router (link-source attribution).

    The mesh wrappers count flits per (src, dst) pair; a tile's value is
    computed on read, as the flits of every pair whose XY route leaves
    that tile (a route crosses each tile at most once).
    """

    def __init__(self, pair_flits: List[int], links_table,
                 num_tiles: int) -> None:
        self._pair_flits = pair_flits
        self._tile_pairs: List[List[int]] = [[] for _ in range(num_tiles)]
        for pair, links in enumerate(links_table):
            for link in links:
                self._tile_pairs[link // num_tiles].append(pair)

    def __len__(self) -> int:
        return len(self._tile_pairs)

    def __getitem__(self, tile: int) -> int:
        pair_flits = self._pair_flits
        return sum(pair_flits[pair] for pair in self._tile_pairs[tile])


class ObsSession:
    """Phase sampler + tracer + stall attribution for one simulation run."""

    def __init__(self, *, sample_interval: int = 5000,
                 trace: bool = True, trace_capacity: int = 65536) -> None:
        self.trace: Optional[SimTrace] = (
            SimTrace(trace_capacity) if trace else None)
        self.sampler: Optional[PhaseSampler] = None
        self.sample_interval = sample_interval
        #: Latency/stall attribution collector.
        self.attrib = AttribCollector(self.trace)
        #: Flits forwarded per tile (link-source attribution), a
        #: :class:`TileFlits` over the mesh wrappers' counts once
        #: :meth:`attach` has run.
        self.tile_flits: Sequence = []
        self.meta: Dict[str, object] = {}
        self._phase_start = 0
        self._phases = 0
        self._attached = False

    # ------------------------------------------------------------------
    @property
    def overhead_events(self) -> int:
        """Scheduler events consumed by observation (sampler ticks)."""
        return self.sampler.ticks if self.sampler is not None else 0

    @property
    def samples(self) -> List[dict]:
        return self.sampler.samples if self.sampler is not None else []

    @property
    def phases(self) -> int:
        """Barrier phases closed so far (spans emitted to the trace)."""
        return self._phases

    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Instrument a freshly built ``System`` (called by its ctor)."""
        if self._attached:
            raise RuntimeError("an ObsSession observes exactly one run; "
                               "create a fresh session per simulation")
        self._attached = True
        ctx = system.ctx
        self.meta.update(workload=system.workload.name,
                         protocol=system.proto.name,
                         num_tiles=ctx.config.num_tiles)

        # -- per-tile link utilization: wrap the ledger's route and
        # packet-count hooks (the send path reads them per call, so
        # rebinding after construction is safe and costs nothing when no
        # obs is given).
        self._wrap_mesh(ctx)

        self.attrib.attach(system)

        self.sampler = PhaseSampler(ctx.queue, self.tile_flits,
                                    self.sample_interval)
        self.sampler.start()

        # -- tracing / DRAM hooks ---------------------------------------
        if self.trace is not None:
            system.barrier.on_release(partial(self._on_barrier, ctx.queue))
        for tile, dram in sorted(ctx.drams.items()):
            dram.on_service = partial(self._on_dram_service, tile)

    def _wrap_mesh(self, ctx) -> None:
        num_tiles = ctx.config.num_tiles
        pair_flits = [0] * (num_tiles * num_tiles)
        self.tile_flits = tile_flits = TileFlits(pair_flits,
                                                 ctx.mesh._links, num_tiles)

        # Each wrapper adds the packet's flits to its (src, dst) pair;
        # TileFlits expands the pairs over their routes when read.  The
        # ledger's send path calls its route hook once per routed packet
        # and its count hook once per unrouted one.
        ledger = ctx.ledger
        real_route = ledger.route

        def route(src, dst, total_flits, now, _real=real_route,
                  _pairs=pair_flits, _n=num_tiles):
            _pairs[src * _n + dst] += total_flits
            return _real(src, dst, total_flits, now)

        real_count = ledger.count_packet

        def count_packet(src, dst, total_flits=1, _real=real_count,
                         _pairs=pair_flits, _n=num_tiles):
            _pairs[src * _n + dst] += total_flits
            return _real(src, dst, total_flits)

        ledger.route = route
        ledger.count_packet = count_packet

    # -- trace hooks ----------------------------------------------------
    def _on_barrier(self, queue) -> None:
        now = queue.now
        self.trace.complete(f"phase {self._phases}", "barrier",
                            self._phase_start, now - self._phase_start,
                            track="barrier phases")
        self._phases += 1
        self._phase_start = now

    def _on_dram_service(self, tile, line_addr, is_write, bank, row_hit,
                         arrival, start, done) -> None:
        self.attrib.on_dram_service(is_write, arrival, start, done)
        if self.trace is not None:
            self.trace.complete(
                "write" if is_write else "read", "dram", start,
                done - start, track=f"mc{tile} bank{bank}",
                args={"line": line_addr, "row_hit": row_hit,
                      "queue_wait": start - arrival})

    # ------------------------------------------------------------------
    def on_measure_reset(self) -> None:
        """End of warm-up (called by ``System`` with the stats reset)."""
        self.attrib.on_measure_reset()

    # ------------------------------------------------------------------
    def finish(self, system) -> None:
        """End of run: close the trailing phase span, take a last sample.

        The last phase ends when the last core finishes; the queue's
        clock may run past that (the sampler's final tick, or protocol
        leftovers flushed after the cores stop).
        """
        end = max(core.finish_time or 0 for core in system.cores)
        if self.trace is not None and end > self._phase_start:
            self.trace.complete(f"phase {self._phases}", "barrier",
                                self._phase_start, end - self._phase_start,
                                track="barrier phases")
            self._phases += 1
            self._phase_start = end
        if self.sampler is not None:
            self.sampler.sample_now()

    # -- export ---------------------------------------------------------
    def intervals(self) -> List[Tuple[int, int, List[int]]]:
        """``(cycle, events, per-tile flits)`` executed in each interval
        between consecutive samples (the first from the run's start)."""
        out = []
        prev_events = 0
        prev_tiles = [0] * len(self.tile_flits)
        for sample in self.samples:
            tiles = sample["tile_flits"]
            out.append((sample["cycle"], sample["events"] - prev_events,
                        [now - before
                         for now, before in zip(tiles, prev_tiles)]))
            prev_events = sample["events"]
            prev_tiles = tiles
        return out

    def _sample_counters(self) -> List[dict]:
        """Chrome counter events derived from the sampled intervals.

        The flit-hop track sums the per-tile flits: a route of ``h``
        hops leaves ``h`` distinct routers, so the sum counts each
        flit-hop once.  Like the mesh's own counters, the samples run
        from cycle 0 through warm-up and are never reset.
        """
        events: List[dict] = []
        for cycle, executed, tiles in self.intervals():
            events.append({"name": "events/interval", "ph": "C",
                           "ts": cycle, "pid": 0,
                           "args": {"events": executed}})
            events.append({"name": "noc flit-hops/interval", "ph": "C",
                           "ts": cycle, "pid": 0,
                           "args": {"flit_hops": sum(tiles)}})
            events.append({"name": "tile link flits/interval",
                           "ph": "C", "ts": cycle, "pid": 0,
                           "args": {f"t{tile}": flits
                                    for tile, flits in enumerate(tiles)}})
        return events

    def chrome_trace(self) -> dict:
        """The run as a Chrome trace-event JSON object (spans + counters)."""
        if self.trace is None:
            raise RuntimeError("this session was created with trace=False")
        data = self.trace.chrome(other_data=dict(self.meta))
        counters = self._sample_counters()
        data["traceEvents"] = sorted(
            data["traceEvents"] + counters,
            key=lambda e: (e.get("ts", -1),))
        return data

    def export(self, path) -> None:
        """Write the Chrome trace JSON (loads in Perfetto) to ``path``."""
        import json
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
            fh.write("\n")
