"""Latency & stall attribution: request lifecycles + per-core cycles.

:class:`AttribCollector` answers the latency question the waste /
traffic / energy pipelines cannot: *where do the cycles of a miss go*
(request NoC, directory/home occupancy, DRAM queue and service, fill
return) and *what is each core stalled on* (L1 miss wait, home L2,
remote L1, DRAM, write-buffer-full, barrier).  It is owned by
:class:`~repro.obs.session.ObsSession` and follows the same
zero-overhead-when-disabled contract: with ``obs=None`` nothing here
exists; when attached, it only *reads* the observational ``t_*``
checkpoints the coherence controllers stamp on
:class:`~repro.core.context.LoadRequest` /
:class:`~repro.core.context.StoreRequest` and rides existing
completion handlers — no scheduler events are added and simulated
timing is untouched, so an attributed run stays bit-identical.

**Lifecycle segments.**  Each completed request's end-to-end latency is
decomposed along its checkpoint chain (monotone by construction)::

    t_issue --req_noc--> t_home_arrive --home--> t_home_depart
      --to_mc--> t_arrive_mc --dram--> t_leave_mc
      --fill_stage--> t_fill_send --fill_noc--> t_done

Checkpoints a request never reached are skipped and their time folds
into the next present segment (an L2 hit has no ``to_mc``/``dram``;
a DeNovo L2 bypass never visits home, so its trip to the controller is
all ``to_mc``).  The segment ending at ``t_fill_send`` is labelled by
where the fill came from: ``fill_stage`` after a memory round-trip,
``fwd_owner`` for a remote-L1 forward, ``home`` otherwise.  NACK
retries replay the chain with a first-write ``t_home_arrive``, so
retry backoff folds into the home-side segment; the retry count is
tracked separately.  By construction the segments of one request sum
exactly to ``t_done - t_issue`` — audited, not assumed.

**Per-core cycle accounting** wraps the three core completion handlers
(``_load_done``, ``_store_stall_resume``, ``_barrier_release``) and
mirrors :class:`~repro.core.core.Core`'s stall arithmetic cycle for
cycle, refining it by *cause*: memory-path loads stall on ``dram``,
on-chip loads on ``l2_home`` / ``remote_l1`` / ``l1_wait`` (the
kernel's L1-hit-after-retry), full store buffers on ``write_buffer``,
barriers on ``barrier``.  ``compute + sum(stalls) == TimeStats.total()``
holds exactly per core — the second conservation audit.

**DRAM reconciliation**: the extended ``on_service`` hook splits queue
wait (service start − controller arrival) from array service and
counts serviced commands, which must equal the channel's
``window_commands()`` in the measurement window — the third audit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.context import (
    SERVED_L2, SERVED_MEMORY, SERVED_NONE, SERVED_REMOTE_L1)

#: Lifecycle segments in chain order (see module docstring).
SEGMENTS = ("req_noc", "home", "fwd_owner", "to_mc", "dram",
            "fill_stage", "fill_noc")

SEGMENT_LABELS = {
    "req_noc": "L1 lookup + request NoC",
    "home": "directory/home occupancy",
    "fwd_owner": "forward + owner L1",
    "to_mc": "home to memory controller",
    "dram": "DRAM queue + service",
    "fill_stage": "fill staging (MC/L2 side)",
    "fill_noc": "fill return NoC",
}

#: Stall causes for per-core cycle accounting.
STALL_CAUSES = ("l1_wait", "l2_home", "remote_l1", "dram",
                "write_buffer", "barrier")

STALL_LABELS = {
    "l1_wait": "L1 miss wait (hit after retry)",
    "l2_home": "home L2 slice",
    "remote_l1": "remote L1 owner",
    "dram": "DRAM round-trip",
    "write_buffer": "write buffer full",
    "barrier": "barrier wait",
}

#: Request kinds with lifecycle records (DeNovo stores are
#: write-combined registrations and carry no per-request record).
OPS = ("load", "store")


class AttribCollector:
    """Per-request lifecycle segments + per-core stall-cause cycles."""

    #: Cap on per-request span groups emitted to the trace ring buffer
    #: (flow-linked in Perfetto); metrics keep counting past the cap.
    FLOW_SPAN_BUDGET = 256

    def __init__(self, hub, trace=None) -> None:
        self.hub = hub
        self.trace = trace
        self._seg_hist = hub.histogram(
            "miss_segment_cycles",
            "per-request lifecycle segment durations")
        self._e2e_hist = hub.histogram(
            "miss_latency_cycles",
            "per-request end-to-end miss latency")
        self._queue_hist = hub.histogram(
            "dram_queue_wait_cycles",
            "DRAM controller queue wait (arrival to service start)")
        self._stall_counter = hub.counter(
            "stall_cycles", "per-core stall cycles by cause")
        self._retry_counter = hub.counter(
            "miss_retries", "NACK/masked retries per request kind")
        # Exact-integer accumulators: the benchmark's stalls pins digest
        # them bit-for-bit, and the conservation audits run over them.
        self.seg_count: Dict[str, Dict[str, int]] = {
            op: dict.fromkeys(SEGMENTS, 0) for op in OPS}
        self.seg_sum: Dict[str, Dict[str, int]] = {
            op: dict.fromkeys(SEGMENTS, 0) for op in OPS}
        self.e2e_count: Dict[str, int] = dict.fromkeys(OPS, 0)
        self.e2e_sum: Dict[str, int] = dict.fromkeys(OPS, 0)
        self.retries: Dict[str, int] = dict.fromkeys(OPS, 0)
        self.stalls: List[Dict[str, int]] = []
        self.nonmonotonic = 0
        self.unbalanced = 0
        self.dram_observed = {"reads": 0, "writes": 0}
        self.dram_queue_wait_sum = 0
        self.dram_service_sum = 0
        self._flow_budget = self.FLOW_SPAN_BUDGET
        self._flow_next = 0
        self._system = None

    # -- wiring ---------------------------------------------------------
    def attach(self, system) -> None:
        """Wrap the completion handlers of a freshly built ``System``.

        The cores and the MESI store-grant handler are fetched by
        instance-attribute lookup on every call, so per-instance
        wrappers cover them with no hot-path branches.
        """
        self._system = system
        self.stalls = [dict.fromkeys(STALL_CAUSES, 0)
                       for _ in system.cores]
        for core in system.cores:
            self._wrap_core(core)
        proto = system.proto_sys
        grant = getattr(proto, "_l1_store_grant", None)
        if grant is not None:
            def store_grant(req, home, acks_needed, data_entries, insts,
                            unblock_ctl_only, t, _inner=grant):
                _inner(req, home, acks_needed, data_entries, insts,
                       unblock_ctl_only, t)
                self._record("store", req.core, req.t_issue, t,
                             req.t_home_arrive, req.t_home_depart,
                             req.t_arrive_mc, req.t_leave_mc,
                             None, SERVED_NONE, req.retries)
            proto._l1_store_grant = store_grant
        for core in system.cores:
            self.hub.add_pull(
                "compute_cycles", lambda c=core: c.time.busy,
                kind="gauge", help="busy (compute + issue) cycles",
                core=core.core_id)

    def _wrap_core(self, core) -> None:
        acct = self.stalls[core.core_id]

        def load_done(t, req, _inner=core._load_done, _core=core,
                      _acct=acct):
            wait_start = _core._wait_start
            _inner(t, req)
            self._on_load_done(t, req, wait_start, _acct)

        def store_resume(t, _inner=core._store_stall_resume, _core=core,
                         _acct=acct):
            wait_start = _core._wait_start
            _inner(t)
            stall = t - wait_start
            if stall > 0:
                _acct["write_buffer"] += stall
                self._stall_counter.inc(stall, cause="write_buffer",
                                        core=_core.core_id)

        def barrier_release(t, _inner=core._barrier_release, _core=core,
                            _acct=acct):
            wait_start = _core._wait_start
            _inner(t)
            stall = t - wait_start
            if stall > 0:
                _acct["barrier"] += stall
                self._stall_counter.inc(stall, cause="barrier",
                                        core=_core.core_id)

        core._load_done = load_done
        core._store_stall_resume = store_resume
        core._barrier_release = barrier_release

    # -- load completion ------------------------------------------------
    def _on_load_done(self, t, req, wait_start, acct) -> None:
        # Mirror Core._load_done's arithmetic exactly so that per core
        # compute + sum(stalls) == TimeStats.total() (audit 2).
        if req.went_to_memory and req.t_arrive_mc is not None:
            leave = req.t_leave_mc if req.t_leave_mc is not None else t
            stall = (max(0, req.t_arrive_mc - wait_start)
                     + max(0, leave - req.t_arrive_mc)
                     + max(0, t - leave))
            cause = "dram"
        else:
            stall = max(0, t - wait_start - 1)
            if req.served_by == SERVED_REMOTE_L1:
                cause = "remote_l1"
            elif req.served_by == SERVED_L2:
                cause = "l2_home"
            else:
                cause = "l1_wait"
        if stall > 0:
            acct[cause] += stall
            self._stall_counter.inc(stall, cause=cause, core=req.core)
        # The coherence kernel's hit-after-retry dummies never entered
        # the protocol; they have no lifecycle to decompose.
        if (req.t_home_arrive is not None or req.went_to_memory
                or req.served_by != SERVED_NONE):
            self._record("load", req.core, req.t_issue, t,
                         req.t_home_arrive, req.t_home_depart,
                         req.t_arrive_mc, req.t_leave_mc,
                         req.t_fill_send, req.served_by, req.retries)

    # -- lifecycle record -----------------------------------------------
    def _record(self, op, core, t_issue, t_done, home_arrive, home_depart,
                arrive_mc, leave_mc, fill_send, served_by,
                retries) -> None:
        segs = []
        prev = t_issue
        for name, ts in (("req_noc", home_arrive), ("home", home_depart),
                         ("to_mc", arrive_mc), ("dram", leave_mc)):
            if ts is None:
                continue
            if ts < prev:
                self.nonmonotonic += 1
                continue
            if ts > prev:
                segs.append((name, prev, ts - prev))
            prev = ts
        if fill_send is not None:
            if arrive_mc is not None:
                name = "fill_stage"
            elif served_by == SERVED_REMOTE_L1:
                name = "fwd_owner"
            else:
                name = "home"
            if fill_send < prev:
                self.nonmonotonic += 1
            else:
                if fill_send > prev:
                    segs.append((name, prev, fill_send - prev))
                prev = fill_send
        if t_done > prev:
            segs.append(("fill_noc", prev, t_done - prev))
        e2e = t_done - t_issue
        if sum(dur for _, _, dur in segs) != e2e:
            self.unbalanced += 1
        seg_count = self.seg_count[op]
        seg_sum = self.seg_sum[op]
        seg_hist = self._seg_hist
        for name, _, dur in segs:
            seg_count[name] += 1
            seg_sum[name] += dur
            seg_hist.observe(dur, op=op, segment=name)
        self.e2e_count[op] += 1
        self.e2e_sum[op] += e2e
        self._e2e_hist.observe(e2e, op=op)
        if retries:
            self.retries[op] += retries
            self._retry_counter.inc(retries, op=op)
        # Flow-linked spans in the trace: loads only (one outstanding
        # blocking load per core keeps its track overlap-free).
        if (op == "load" and self.trace is not None
                and self._flow_budget > 0 and len(segs) > 1):
            self._flow_budget -= 1
            flow_id = self._flow_next = self._flow_next + 1
            track = f"core{core} miss"
            last = len(segs) - 1
            for i, (name, start, dur) in enumerate(segs):
                self.trace.complete(name, "miss", start, dur, track=track)
                phase = "s" if i == 0 else ("f" if i == last else "t")
                self.trace.flow(op, "miss", start, flow_id, track=track,
                                phase=phase)

    # -- DRAM hook (driven by ObsSession._on_dram_service) ---------------
    def on_dram_service(self, tile, is_write, arrival, start,
                        done) -> None:
        self.dram_observed["writes" if is_write else "reads"] += 1
        wait = start - arrival
        self.dram_queue_wait_sum += wait
        self.dram_service_sum += done - start
        self._queue_hist.observe(wait, mc=tile)

    # -- measurement window ----------------------------------------------
    def on_measure_reset(self) -> None:
        """End of warm-up: restart attribution with the other stats.

        Called by ``System`` in the same event as ``ctx.reset_stats()``
        and the cores' ``reset_time()``, so every conservation audit
        compares like-scoped windows.
        """
        for op in OPS:
            self.seg_count[op] = dict.fromkeys(SEGMENTS, 0)
            self.seg_sum[op] = dict.fromkeys(SEGMENTS, 0)
        self.e2e_count = dict.fromkeys(OPS, 0)
        self.e2e_sum = dict.fromkeys(OPS, 0)
        self.retries = dict.fromkeys(OPS, 0)
        # The stall wrappers hold references to these dicts — clear in
        # place, never replace, or post-reset stalls would vanish.
        for per_core in self.stalls:
            for cause in STALL_CAUSES:
                per_core[cause] = 0
        self.nonmonotonic = 0
        self.unbalanced = 0
        self.dram_observed = {"reads": 0, "writes": 0}
        self.dram_queue_wait_sum = 0
        self.dram_service_sum = 0
        for metric in (self._seg_hist, self._e2e_hist, self._queue_hist,
                       self._stall_counter, self._retry_counter):
            metric.clear()

    # -- audits -----------------------------------------------------------
    def audits(self) -> Dict[str, dict]:
        """The three conservation audits over the current window."""
        system = self._system
        seg_total = sum(sum(per.values()) for per in self.seg_sum.values())
        e2e_total = sum(self.e2e_sum.values())
        segments = {
            "ok": (seg_total == e2e_total and self.nonmonotonic == 0
                   and self.unbalanced == 0),
            "segment_cycles": seg_total,
            "e2e_cycles": e2e_total,
            "nonmonotonic": self.nonmonotonic,
            "unbalanced": self.unbalanced,
        }
        per_core = []
        cycles_ok = True
        for core in system.cores:
            stalled = sum(self.stalls[core.core_id].values())
            total = core.time.total()
            ok = core.time.busy + stalled == total
            cycles_ok = cycles_ok and ok
            per_core.append({"core": core.core_id, "ok": ok,
                             "busy": core.time.busy, "stalled": stalled,
                             "total": total})
        cycles = {"ok": cycles_ok, "per_core": per_core}
        window = {"reads": 0, "writes": 0}
        for dram in system.ctx.drams.values():
            commands = dram.window_commands()
            window["reads"] += commands["reads"]
            window["writes"] += commands["writes"]
        dram = {"ok": self.dram_observed == window,
                "observed": dict(self.dram_observed),
                "window_commands": window}
        return {"ok": segments["ok"] and cycles["ok"] and dram["ok"],
                "segments": segments, "cycles": cycles, "dram": dram}

    # -- reporting ---------------------------------------------------------
    def segment_totals(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Exact-integer segment counts/sums."""
        return {op: {seg: {"count": self.seg_count[op][seg],
                           "cycles": self.seg_sum[op][seg]}
                     for seg in SEGMENTS if self.seg_count[op][seg]}
                for op in OPS}

    def stall_totals(self) -> Dict[str, int]:
        """Stall cycles by cause, summed over cores (exact ints)."""
        totals = dict.fromkeys(STALL_CAUSES, 0)
        for per_core in self.stalls:
            for cause, cycles in per_core.items():
                totals[cause] += cycles
        return totals

    def report(self) -> dict:
        """JSON-able attribution profile (the ``repro stalls`` payload)."""
        system = self._system
        compute = sum(core.time.busy for core in system.cores)
        return {
            "protocol": system.proto.name,
            "workload": system.workload.name,
            "segments": self.segment_totals(),
            "latency": {op: {"count": self.e2e_count[op],
                             "cycles": self.e2e_sum[op]}
                        for op in OPS if self.e2e_count[op]},
            "retries": dict(self.retries),
            "stalls": {"total": self.stall_totals(),
                       "per_core": [dict(s) for s in self.stalls]},
            "compute_cycles": compute,
            "dram": {"observed": dict(self.dram_observed),
                     "queue_wait_cycles": self.dram_queue_wait_sum,
                     "service_cycles": self.dram_service_sum},
            "audits": self.audits(),
        }
