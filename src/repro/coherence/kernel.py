"""Shared coherence-kernel machinery (the hierarchy layer).

:class:`CoherenceKernel` owns everything a protocol core needs
whichever protocol it runs:

* the L1 and L2 tag+state arrays (one :class:`SetAssocCache` per tile,
  with the L2 slices shifting out the home-interleaving bits);
* the transaction lifecycle around L1 fills: way reservation,
  eviction-protection of lines with in-flight requests, and
  unprotected-victim selection;
* retire hooks — callbacks cores register to be woken after the next
  store retirement (store-buffer-full stalls, barrier drains);
* the waste-profiler touchpoints of the L1 fast path (load-hit use and
  memory-instance accounting);
* the explicit :meth:`stats` protocol consumed by ``System._collect``
  (replacing the old ``dir()``-scan over ``stat_*`` attributes);
* the run's acted flags (:attr:`CoherenceKernel.acted`).

Protocol cores (:class:`~repro.coherence.mesi.MesiSystem`,
:class:`~repro.coherence.denovo.DenovoSystem`) subclass the kernel and
add their coherence state machines on top.  Message building and flit
sizing are shared one layer down, in ``SimContext.send_*``; the kernel
binds the hot ones to instance attributes so the access fast path skips
repeated attribute chains.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.cache.sa_cache import CacheLine, SetAssocCache
from repro.common.addressing import OFFSET_MASK as _OFFSET_MASK
from repro.core.context import LoadRequest, SimContext

#: Ways per L1 set and per L2-slice set (paper Table 4.1).
L1_ASSOC = 8
L2_ASSOC = 16


class CoherenceKernel:
    """Shared tag arrays, transaction lifecycle and profiling hooks."""

    #: Per-protocol line classes; subclasses override with lines carrying
    #: their protocol state (directory bits, per-word owners, ...).
    l1_line_cls = CacheLine
    l2_line_cls = CacheLine

    #: The ``ProtocolConfig`` flags the core witnesses: at every read of
    #: such a flag's attribute it adds the flag to :attr:`acted` when
    #: the flag's other value would have taken the other branch, judged
    #: from the run's own state.
    WITNESSED: FrozenSet[str] = frozenset()
    #: Flags that count as acted in every run, whatever their value.
    ALWAYS_ACTING: FrozenSet[str] = frozenset()

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        # Flags that acted so far.  A run in which none of the flags two
        # rungs differ on acted is, event for event, the other rung's
        # run (``simulate()`` copies its result).
        self.acted: Set[str] = set(self.ALWAYS_ACTING)
        cfg = ctx.config
        num_tiles = cfg.num_tiles
        self.l1: List[SetAssocCache] = [
            SetAssocCache(cfg.l1_lines // L1_ASSOC, L1_ASSOC,
                          self.l1_line_cls)
            for _ in range(num_tiles)]
        # Home interleaving (line % num_tiles) consumes the low
        # line-address bits only when the tile count is a power of two;
        # shift them out of the L2 set index in that case.  For
        # non-power-of-two shapes (3x3, 5x5, ...) the slice id is not a
        # bit-field, every set stays reachable, and no shift is correct.
        l2_shift = (num_tiles.bit_length() - 1
                    if num_tiles & (num_tiles - 1) == 0 else 0)
        self.l2: List[SetAssocCache] = [
            SetAssocCache(cfg.l2_slice_lines // L2_ASSOC, L2_ASSOC,
                          self.l2_line_cls, index_shift=l2_shift)
            for _ in range(num_tiles)]
        # Core-level callbacks fired after any retire (buffer-full stalls).
        self._retire_hooks: List[List[Callable[[int], None]]] = [
            [] for _ in range(num_tiles)]
        # Lines with an in-flight request (protected from L1 eviction).
        self._protected: List[Set[int]] = [set() for _ in range(num_tiles)]
        # Fast-path bindings: the hot message entry points and scheduler,
        # bound once so per-access code skips the ctx attribute chains.
        self._send_req_ctl = ctx.send_req_ctl
        self._send_resp_ctl = ctx.send_resp_ctl
        self._send_data = ctx.send_data
        self._send_wb = ctx.send_wb
        self._send_overhead = ctx.send_overhead
        self._schedule_call = ctx.queue.schedule_call
        self._home_tile = ctx.home_tile
        self._queue = ctx.queue

    # ------------------------------------------------------------------
    # Core-facing interface (the contract ``core.Core`` drives)
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, at: int, on_done) -> Optional[int]:
        raise NotImplementedError

    def store(self, core: int, addr: int, at: int) -> bool:
        raise NotImplementedError

    def pending_store_count(self, core: int) -> int:
        raise NotImplementedError

    def drain_barrier(self, core: int, at: int,
                      resume: Callable[[int], None]) -> None:
        raise NotImplementedError

    def on_retire(self, core: int, hook: Callable[[int], None]) -> None:
        """Run ``hook(time)`` after the next store retirement on ``core``."""
        self._retire_hooks[core].append(hook)

    def on_barrier(self, written_regions) -> None:
        """Barrier-time protocol work; the default is a no-op."""

    def finalize(self) -> None:
        """End of simulation: flush protocol leftovers; default no-op."""

    def stats(self) -> Dict[str, int]:
        """Protocol counters for ``RunResult.protocol_stats``."""
        return {}

    def energy_counters(self) -> Dict[str, int]:
        """Event counters for ``RunResult.energy_counters``.

        The base kernel reports the shared tag-array events; protocol
        cores extend the dict with their own structures (e.g. DeNovo's
        Bloom filter banks).  Purely observational — the energy model
        (:mod:`repro.energy`) multiplies these by per-event costs.
        """
        counters = {"l1_probes": 0, "l1_installs": 0, "l1_evictions": 0,
                    "l2_probes": 0, "l2_installs": 0, "l2_evictions": 0}
        for prefix, caches in (("l1", self.l1), ("l2", self.l2)):
            for cache in caches:
                counters[f"{prefix}_probes"] += cache.stat_probes
                counters[f"{prefix}_installs"] += cache.stat_installs
                counters[f"{prefix}_evictions"] += cache.stat_evictions
        return counters

    # ------------------------------------------------------------------
    # Retire hooks
    # ------------------------------------------------------------------

    def _fire_retire_hooks(self, core: int, t: int) -> None:
        hooks = self._retire_hooks[core]
        if not hooks:
            return
        self._retire_hooks[core] = []
        queue = self._queue
        now = queue.now
        when = t if t >= now else now
        schedule_call = queue.schedule_call
        for hook in hooks:
            schedule_call(when, hook, t)

    # ------------------------------------------------------------------
    # L1 reservation / allocation (shared transaction lifecycle)
    # ------------------------------------------------------------------

    def _can_reserve(self, core: int, line_addr: int) -> bool:
        """Whether an L1 fill for ``line_addr`` can claim a way now."""
        return self.l1[core].can_claim(line_addr, self._protected[core])

    def _allocate_l1(self, core: int, line_addr: int):
        """Insert ``line_addr`` into the L1, evicting an unprotected way.

        Victims are handed to the protocol core's ``_evict_l1_line`` for
        writeback/profiling before the new line is installed.
        """
        cache = self.l1[core]
        existing = cache.lookup(line_addr)
        if existing is not None:
            return existing
        # Choose an unprotected victim: temporarily walk LRU order.
        victim = cache.victim_for(line_addr)
        if victim is not None and victim.line_addr in self._protected[core]:
            victim = self._find_unprotected_victim(core, line_addr)
        if victim is not None:
            cache.remove(victim.line_addr)
            self._evict_l1_line(core, victim)
        line, auto_victim = cache.allocate(line_addr)
        if auto_victim is not None:
            self._evict_l1_line(core, auto_victim)
        return line

    def _find_unprotected_victim(self, core: int, line_addr: int):
        cache = self.l1[core]
        for candidate in cache.lru_order(line_addr):
            if candidate not in self._protected[core]:
                return cache.lookup(candidate, touch=False)
        raise RuntimeError(
            "no evictable way; _can_reserve should prevent this")

    def _evict_l1_line(self, core: int, line) -> None:
        """Protocol-specific victim handling (writebacks, profiling)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared fast-path profiling / retry / message helpers
    # ------------------------------------------------------------------

    def _profile_load_hit(self, core: int, line, addr: int) -> None:
        ctx = self.ctx
        ctx.l1_prof.on_use(core, addr)
        off = addr & _OFFSET_MASK
        if line.inst_mask >> off & 1:
            ctx.mem_prof.on_load(line.mem_inst[off])

    def _retry_load(self, core: int, addr: int, at: int,
                    on_done: Callable[[int, LoadRequest], None]) -> None:
        done = self.load(core, addr, at, on_done)
        if done is not None:
            dummy = LoadRequest(core=core, addr=addr, t_issue=at,
                                on_done=on_done)
            on_done(done, dummy)

    def _wb_to_dram(self, line_addr: int, _t: int) -> None:
        """Terminal handler of a writeback travelling to memory."""
        self.ctx.dram_for(line_addr).write(line_addr)

    @staticmethod
    def _ignore(*_args) -> None:
        """No-op message handler (fire-and-forget data messages)."""
