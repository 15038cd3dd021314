"""In-order core model (Simics-equivalent, paper Section 4.2).

Each core executes its trace in order.  Non-memory instructions take one
cycle (represented by ``OP_COMPUTE`` advances), loads block on misses,
stores are non-blocking until the protocol's buffering fills up, and
barriers synchronize all cores.

Stall cycles are attributed to the paper's Figure 5.2 buckets: ``busy``
(compute + issue), ``onchip`` (misses served by the L2 or a remote L1),
``to_mc`` / ``mem`` / ``from_mc`` (segments of memory-served misses) and
``sync`` (barrier wait, including the pre-barrier write drain).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.context import LoadRequest, SimContext
from repro.core.stats import TimeStats
from repro.engine.events import Barrier
from repro.workloads.trace import OP_COMPUTE, OP_LOAD, OP_STORE, PackedTrace

#: Max ops executed locally before yielding to the event queue; bounds the
#: timing skew introduced by batching L1 hits.
BATCH_LIMIT = 64

#: Core clock (paper Table 4.1).  The simulation counts cycles; only the
#: energy model converts them to seconds.
CORE_GHZ = 2.0


class Core:
    """One in-order core driving its trace through the protocol."""

    def __init__(self, core_id: int, trace: PackedTrace, protocol_system,
                 ctx: SimContext, barrier: Barrier,
                 on_finish: Callable[[int, int], None]) -> None:
        self.core_id = core_id
        #: the trace's raw packed words (``arg << 2 | kind``)
        self.words = trace.words
        self.proto = protocol_system
        self.ctx = ctx
        self.barrier = barrier
        self.on_finish = on_finish
        self.time = TimeStats()
        self.pc = 0
        self.finished = False
        self.finish_time: Optional[int] = None
        self._wait_start = 0

    def start(self, at: int = 0) -> None:
        self.ctx.queue.schedule_call(at, self._run, at)

    # ------------------------------------------------------------------

    def _run(self, at: int) -> None:
        # The hottest loop in the simulator: bind the per-op lookups
        # (packed trace words, program counter, protocol entry points,
        # trace length, the load continuation) to locals so each op
        # skips repeated attribute chains, and test the kinds in trace
        # frequency order (loads, then stores, then computes; the two
        # kind bits leave only barriers).  Each word decodes with
        # literals, ``op & 3`` the kind and ``op >> 2`` the argument
        # (the layout in ``repro.workloads.trace``): a literal skips a
        # global lookup per op.  Busy cycles sum in a local that every
        # exit adds to ``time.busy``; samplers and the warm-up reset run
        # as separate events, so they always see the flushed total.
        # Re-entry and continuations go through the closure-free
        # scheduler (bound method + args, no lambda per yield).
        queue = self.ctx.queue
        now = queue.now
        t = at if at >= now else now
        batch = 0
        busy = 0
        words = self.words
        trace_len = len(words)
        core_id = self.core_id
        proto_load = self.proto.load
        proto_store = self.proto.store
        load_done = self._load_done
        pc = self.pc
        while pc < trace_len:
            op = words[pc]
            kind = op & 3
            if kind == OP_LOAD:
                busy += 1
                done = proto_load(core_id, op >> 2, t, load_done)
                if done is None:
                    self.pc = pc
                    self.time.busy += busy
                    self._wait_start = t
                    return
                t = done
            elif kind == OP_STORE:
                if not proto_store(core_id, op >> 2, t):
                    self.pc = pc
                    self.time.busy += busy
                    self._wait_start = t
                    self.proto.on_retire(core_id, self._store_stall_resume)
                    return
                busy += 1
                t += 1
            elif kind == OP_COMPUTE:
                arg = op >> 2
                busy += arg
                t += arg
                if arg > BATCH_LIMIT:
                    self.pc = pc + 1
                    self.time.busy += busy
                    queue.schedule_call(t, self._run, t)
                    return
            else:   # OP_BARRIER
                self.pc = pc + 1
                self.time.busy += busy
                self._wait_start = t
                self.proto.drain_barrier(core_id, t, self._drain_done)
                return
            pc += 1
            batch += 1
            if batch >= BATCH_LIMIT:
                self.pc = pc
                self.time.busy += busy
                queue.schedule_call(t, self._run, t)
                return
        self.pc = pc
        self.time.busy += busy
        self.finished = True
        self.finish_time = t
        self.on_finish(core_id, t)

    # ------------------------------------------------------------------

    def _drain_done(self, _t: int) -> None:
        """Store drain finished: join the barrier."""
        self.barrier.arrive(self.core_id, self._barrier_release)

    def _load_done(self, t: int, req: LoadRequest) -> None:
        stall = max(0, t - self._wait_start - 1)
        if req.went_to_memory and req.t_arrive_mc is not None:
            leave = req.t_leave_mc if req.t_leave_mc is not None else t
            self.time.to_mc += max(0, req.t_arrive_mc - self._wait_start)
            self.time.mem += max(0, leave - req.t_arrive_mc)
            self.time.from_mc += max(0, t - leave)
        else:
            self.time.onchip += stall
        self.pc += 1
        self._run(t)

    def _store_stall_resume(self, t: int) -> None:
        stall = max(0, t - self._wait_start)
        if getattr(self.proto, "last_retire_went_to_memory", None):
            to_mem = self.proto.last_retire_went_to_memory(self.core_id)
        else:
            to_mem = False
        if to_mem:
            self.time.mem += stall
        else:
            self.time.onchip += stall
        self._run(t)   # retry the same store op

    def _barrier_release(self, release_time: int) -> None:
        self.time.sync += max(0, release_time - self._wait_start)
        self._run(release_time)

    def reset_time(self) -> None:
        self.time.reset()
