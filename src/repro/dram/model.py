"""DDR3-style DRAM timing model with an FR-FCFS memory controller.

This stands in for DRAMSim2 in the paper's stack.  Each corner-tile memory
controller owns one single-channel DIMM with ``ranks * banks`` banks and an
open-page row-buffer policy.  Requests are scheduled first-ready
first-come-first-served: row-buffer hits are served before older row misses.

Per the paper's assumption (Section 3.1, "Dirty-Words-Only Writeback"), the
model accepts word-masked writes; reads always fetch a full line from the
DRAM array (conventional DDR3), with any Flex filtering happening in the
memory controller after the read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.engine.events import EventQueue

#: Lines per 8KB DRAM row (64-byte lines).
LINES_PER_ROW = 128


@dataclass(slots=True)
class _Bank:
    open_row: Optional[int] = None
    busy_until: int = 0


# Compared by identity: every request has a unique ``seq``, so queue
# removal finds the same entry without a field-by-field ``__eq__``.
@dataclass(slots=True, eq=False)
class _Request:
    line_addr: int
    is_write: bool
    arrival: int
    callback: Optional[Callable[..., None]]
    args: Tuple
    seq: int


class DramChannel:
    """One memory channel: FR-FCFS queue in front of banked DRAM."""

    def __init__(self, config: SystemConfig, queue: EventQueue) -> None:
        self._config = config
        self._queue = queue
        self._num_banks = config.dram_banks * config.dram_ranks
        self._banks: List[_Bank] = [_Bank() for _ in range(self._num_banks)]
        self._pending: List[_Request] = []
        self._bus_free = 0
        self._dispatch_scheduled = False
        self._seq = 0
        # statistics
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        # Energy-model command counters: every row miss issues an
        # ACTIVATE; misses on a bank with another row open additionally
        # issue a PRECHARGE first.  Observational only.
        self.activates = 0
        self.precharges = 0
        # Measurement-window baseline: the cumulative stats above cover
        # the whole run (warm-up included, the long-standing dram_stats
        # convention), but energy must follow the post-warm-up window
        # like every other component, so the warm-up reset snapshots the
        # counts and window_commands() reports the difference.
        self._window_base = (0, 0, 0, 0)
        # Observability hook: when set (by repro.obs.ObsSession), fired
        # once per serviced request as ``on_service(line_addr, is_write,
        # bank, row_hit, arrival, start, done)``.  ``arrival`` is when
        # the request entered the controller queue, so the hook can split
        # queue wait (start - arrival) from array service (done - start).
        # None by default — the only disabled-path cost is this attribute
        # test per DRAM service, which is orders of magnitude rarer than
        # scheduler events.
        self.on_service: Optional[Callable[..., None]] = None

    # -- address mapping ---------------------------------------------------
    def bank_of(self, line_addr: int) -> int:
        return (line_addr // LINES_PER_ROW) % self._num_banks

    def row_of(self, line_addr: int) -> int:
        return line_addr // (LINES_PER_ROW * self._num_banks)

    def same_row(self, line_a: int, line_b: int) -> bool:
        """True when both lines live in the same row of the same bank.

        The L2-Flex optimization only prefetches extra lines that share the
        critical line's DRAM row, because row activation is expensive.
        """
        return (self.bank_of(line_a) == self.bank_of(line_b)
                and self.row_of(line_a) == self.row_of(line_b))

    # -- public interface ----------------------------------------------------
    def read(self, line_addr: int, callback: Callable[..., None],
             *args) -> None:
        """Read a line; ``callback(*args, completion_time)`` fires when
        the data is out (closure-free: pass a bound method plus its
        state instead of capturing it in a lambda)."""
        self._enqueue(_Request(line_addr, False, self._queue.now, callback,
                               args, self._next_seq()))

    def write(self, line_addr: int,
              callback: Optional[Callable[..., None]] = None,
              *args) -> None:
        """Write a (possibly word-masked) line; fire-and-forget by default."""
        self._enqueue(_Request(line_addr, True, self._queue.now, callback,
                               args, self._next_seq()))

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def reset_energy_counters(self) -> None:
        """Start the measurement window (end of warm-up)."""
        self._window_base = (self.reads, self.writes, self.activates,
                             self.precharges)

    def window_commands(self) -> Dict[str, int]:
        """Command counts since the last :meth:`reset_energy_counters`."""
        reads, writes, activates, precharges = self._window_base
        return {"reads": self.reads - reads,
                "writes": self.writes - writes,
                "activates": self.activates - activates,
                "precharges": self.precharges - precharges}

    def register_metrics(self, hub, tile: int) -> None:
        """Register this channel's counters into a ``repro.obs`` hub.

        The command counters pull :meth:`window_commands` so the hub
        reconciles with ``RunResult.energy_counters``' measurement
        window; row hits/misses keep the whole-run ``dram_stats``
        scope.  Pull-based — called only when observability is enabled.
        """
        for cmd in ("reads", "writes", "activates", "precharges"):
            hub.add_pull(f"dram_{cmd}",
                         lambda d=self, c=cmd: d.window_commands()[c],
                         help=f"DRAM {cmd} in the measurement window",
                         mc=tile)
        hub.add_pull("dram_row_hits", lambda d=self: d.row_hits,
                     help="row-buffer hits (whole run)", mc=tile)
        hub.add_pull("dram_row_misses", lambda d=self: d.row_misses,
                     help="row-buffer misses (whole run)", mc=tile)
        hub.add_pull("dram_queue_depth", lambda d=self: d.queue_depth,
                     kind="gauge", help="pending requests at the memory "
                     "controller", mc=tile)

    # -- internals -----------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _enqueue(self, request: _Request) -> None:
        self._pending.append(request)
        self._schedule_dispatch(self._queue.now)

    def _schedule_dispatch(self, when: int) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        now = self._queue.now
        self._queue.schedule_call(when if when >= now else now,
                                  self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        pending = self._pending
        if not pending:
            return
        now = self._queue.now
        request = self._select(now)
        if request is None:
            # All needed banks busy; retry when the earliest one frees up.
            banks = self._banks
            num_banks = self._num_banks
            wake = min(
                banks[(r.line_addr // LINES_PER_ROW) % num_banks].busy_until
                for r in pending)
            self._schedule_dispatch(max(wake, now + 1))
            return
        pending.remove(request)
        done = self._service(request, now)
        if pending:
            # The next request cannot start before the shared data bus
            # frees (polling sooner only burns events), which is exactly
            # ``done`` — so the completion callback and the follow-on
            # dispatch fuse into a single wakeup.  The two used to be
            # back-to-back heap entries at the same cycle (consecutive
            # seqs, nothing can interleave), so running them in sequence
            # from one event preserves the global firing order exactly.
            wake = now + 1
            if self._bus_free > wake:
                wake = self._bus_free
            if wake == done:
                self._dispatch_scheduled = True
                self._queue.schedule_call(done, self._serviced,
                                          request.callback, request.args)
            else:
                # Degenerate timing configs (zero-latency DRAM) can pull
                # the bus-free poll off the completion cycle; keep the
                # pre-fusion two-event shape for those.
                if request.callback is not None:
                    self._queue.schedule_call(done, request.callback,
                                              *request.args, done)
                self._schedule_dispatch(wake)
        elif request.callback is not None:
            self._queue.schedule_call(done, request.callback,
                                      *request.args, done)

    def _serviced(self, callback: Optional[Callable[..., None]],
                  args: Tuple) -> None:
        """Fused completion: deliver the data, then dispatch the next
        request.  ``_dispatch_scheduled`` stays True through the
        callback — mirroring the pre-fusion state where the follow-on
        dispatch event was already in the queue — so a re-entrant
        enqueue from the callback cannot double-schedule."""
        if callback is not None:
            callback(*args, self._queue.now)
        self._dispatch()

    #: FR-FCFS scheduling window: real controllers reorder over a bounded
    #: queue prefix, which also keeps selection O(window) however deep
    #: the backlog grows.
    SCHED_WINDOW = 32

    def _select(self, now: int) -> Optional[_Request]:
        """FR-FCFS: oldest row-buffer hit on a ready bank, else oldest ready."""
        oldest_ready = None
        scanned = 0
        banks = self._banks
        num_banks = self._num_banks
        window = self.SCHED_WINDOW
        row_span = LINES_PER_ROW * num_banks
        for request in self._pending:   # queue order == age order
            line_addr = request.line_addr
            bank = banks[(line_addr // LINES_PER_ROW) % num_banks]
            if bank.busy_until > now:
                continue
            if bank.open_row == line_addr // row_span:
                return request
            if oldest_ready is None:
                oldest_ready = request
            scanned += 1
            if scanned >= window:
                break
        return oldest_ready

    def _service(self, request: _Request, now: int) -> int:
        cfg = self._config
        bank_index = self.bank_of(request.line_addr)
        bank = self._banks[bank_index]
        row = self.row_of(request.line_addr)
        ready = max(now, bank.busy_until)
        row_hit = bank.open_row == row
        if row_hit:
            self.row_hits += 1
            access = cfg.dram_t_cl
        elif bank.open_row is None:
            self.row_misses += 1
            self.activates += 1
            access = cfg.dram_t_rcd + cfg.dram_t_cl
        else:
            self.row_misses += 1
            self.activates += 1
            self.precharges += 1
            access = cfg.dram_t_rp + cfg.dram_t_rcd + cfg.dram_t_cl
        bank.open_row = row
        # Bank access latencies overlap across banks; only the data burst
        # serializes on the shared channel bus.
        data_start = max(ready + access, self._bus_free)
        done = data_start + cfg.dram_t_burst
        bank.busy_until = done
        self._bus_free = done
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
        if self.on_service is not None:
            self.on_service(request.line_addr, request.is_write, bank_index,
                            row_hit, request.arrival, now, done)
        return done
