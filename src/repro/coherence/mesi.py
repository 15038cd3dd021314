"""Directory-based MESI protocol core (GEMS-style, blocking directory).

``MesiSystem`` is a protocol core on top of
:class:`~repro.coherence.kernel.CoherenceKernel`: the kernel owns the
tag arrays, reservation/protection lifecycle and retire hooks; this
module owns the line-granular MESI state machine and reads the
``ProtocolConfig`` flags that distinguish the MESI-side rungs:

* **MESI** — baseline: inclusive shared L2 with an in-cache directory,
  blocking transitions (requests to busy lines are NACKed), E state with
  silent E->M upgrade, Upgrade requests for S->M, fetch-on-write, directory
  unblock messages, and non-blocking writes through a 32-entry store buffer.
* **MMemL1** (``mem_to_l1``) — memory responses go directly to the
  requesting L1; loads forward the line to the L2 as a combined
  unblock+data message (profiled as load traffic, per Section 3.3), and
  write fills skip the L2 entirely since the L1 writeback will
  overwrite them.
* **MDirtyWB** (``dirty_wb_only``, beyond the paper) — L1 and
  L2->memory writebacks carry only the dirty words instead of the whole
  line with dirty flags.

Both flags are witnessed (see ``CoherenceKernel.acted``): ``mem_to_l1``
acts at every memory response and ``dirty_wb_only`` at every writeback
of a line with clean words.

The protocol is line-granular; per-word dirty bits are tracked only for
the waste profiler and the writeback Used/Waste split of Figure 5.1d.
MESI lines carry no per-word coherence state, and a line's memory
instances are always a whole fill's (the ``range`` a memory fetch
returns, shared by every copy) or none.

Message continuations use the closure-free scheduling convention
(``handler, *args`` with the arrival time appended as the last
argument), so the hot request/fill paths allocate no lambdas; the only
remaining closures sit on rare blocked/waiter paths.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.cache.sa_cache import FULL_MASK, CacheLine, mask_offsets
from repro.cache.writebuffer import STORE_BUFFER_ENTRIES, StoreBuffer
from repro.coherence.kernel import CoherenceKernel
from repro.common.addressing import WORDS_PER_LINE, base_word, line_of
from repro.core.context import (
    NACK_RETRY_DELAY, SERVED_L2, SERVED_MEMORY, SERVED_REMOTE_L1,
    LoadRequest, SimContext, StoreRequest)
from repro.network import traffic as T

# The inlined load-hit path uses ``addr & 15`` for offset_of (16-word
# lines, pinned in repro.common.addressing).

# L1 line states.
L1_PENDING = 0   # way reserved, fill in flight
L1_S = 1
L1_E = 2
L1_M = 3

# L2 directory states (per line).
DIR_IDLE = 0     # data at L2 is authoritative (sharers may exist)
DIR_EXCL = 1     # one L1 owns the line (E or M)


class MesiL1Line(CacheLine):
    __slots__ = ("state",)

    def __init__(self, line_addr: int) -> None:
        super().__init__(line_addr)
        self.state = L1_PENDING


class MesiL2Line(CacheLine):
    """An L2 line with its directory entry.

    ``sharers`` stays a set, not a tile bit mask: invalidations and
    recalls go out in the set's iteration order, and link contention
    makes that order visible in the results (ascending tile order
    changes the tiny barnes cells)."""

    __slots__ = ("dir_state", "owner", "sharers", "busy", "has_data",
                 "l2_dirty", "waiters")

    def __init__(self, line_addr: int) -> None:
        super().__init__(line_addr)
        self.dir_state = DIR_IDLE
        self.owner: Optional[int] = None
        self.sharers: Set[int] = set()
        self.busy = False
        self.has_data = False
        self.l2_dirty = False
        # Requests held back while the line is mid-transition (the
        # "blocking directory" of GEMS: hold back or NACK); a list made
        # on first use.
        self.waiters: Optional[List[Callable[[int], None]]] = None


class MesiSystem(CoherenceKernel):
    """All L1s, L2 slices and the directory logic of one MESI machine."""

    l1_line_cls = MesiL1Line
    l2_line_cls = MesiL2Line

    WITNESSED = frozenset(("mem_to_l1", "dirty_wb_only"))

    def __init__(self, ctx: SimContext) -> None:
        super().__init__(ctx)
        cfg = ctx.config
        proto = ctx.proto
        self.mem_to_l1 = proto.mem_to_l1
        self._dirty_wb_only = proto.dirty_wb_only
        self.sbuf = [StoreBuffer(STORE_BUFFER_ENTRIES)
                     for _ in range(cfg.num_tiles)]
        # Deferred store words per (core, line): the mask of offsets
        # written while the ownership request is in flight.
        self._pending_words: List[Dict[int, int]] = [
            dict() for _ in range(cfg.num_tiles)]
        self._store_reqs: List[Dict[int, StoreRequest]] = [
            dict() for _ in range(cfg.num_tiles)]
        # Loads blocked on a line with a pending store: line -> callbacks.
        self._load_waiters: List[Dict[int, List[Callable[[int], None]]]] = [
            dict() for _ in range(cfg.num_tiles)]
        self._last_retire_mem = [False] * cfg.num_tiles
        self.stat_upgrades = 0
        self.stat_nacks = 0
        self.stat_e_grants = 0

    def stats(self) -> Dict[str, int]:
        return {"e_grants": self.stat_e_grants,
                "nacks": self.stat_nacks,
                "upgrades": self.stat_upgrades}

    def last_retire_went_to_memory(self, core: int) -> bool:
        return self._last_retire_mem[core]

    # ------------------------------------------------------------------
    # Core-facing interface
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, at: int,
             on_done: Callable[[int, LoadRequest], None]) -> Optional[int]:
        """Issue a load; return completion time on an L1 hit, else None
        and ``on_done(time, request)`` fires later."""
        line_addr = addr >> 4
        line = self.l1[core].lookup(line_addr)
        if line is not None and line.state != L1_PENDING:
            if self.sbuf[core].has(line_addr):
                # Ownership upgrade in flight; the load waits for it so the
                # value it reads is the retired store's.
                self._wait_on_line(core, line_addr, addr, at, on_done)
                return None
            # Hottest path in the protocol: _profile_load_hit inlined.
            ctx = self.ctx
            ctx.l1_prof.on_use(core, addr)
            off = addr & 15
            if line.inst_mask >> off & 1:
                ctx.mem_prof.on_load(line.mem_inst[off])
            return at + 1
        if line is not None and line.state == L1_PENDING:
            self._wait_on_line(core, line_addr, addr, at, on_done)
            return None
        if not self._can_reserve(core, line_addr):
            # Set conflict with in-flight fills: retry after a retire.
            self._retire_hooks[core].append(
                lambda t: self._retry_load(core, addr, t, on_done))
            return None
        request = LoadRequest(core=core, addr=addr, t_issue=at,
                              on_done=on_done)
        self._reserve_line(core, line_addr)
        self._send_req_ctl(
            T.LD, core, self._home_tile(line_addr), at,
            self._dir_gets, request)
        return None

    def store(self, core: int, addr: int, at: int) -> bool:
        """Issue a store; True if accepted (hit or buffered), False if the
        store buffer is full and the core must stall."""
        line_addr = addr >> 4
        sbuf = self.sbuf[core]
        line = self.l1[core].lookup(line_addr)
        if sbuf.has(line_addr):
            self._pending_words[core][line_addr] |= 1 << (addr & 15)
            return True
        if line is not None and line.state in (L1_E, L1_M):
            line.state = L1_M   # silent E->M upgrade
            self._apply_store_word(core, line, addr)
            return True
        if sbuf.is_full():
            return False
        if line is None and not self._can_reserve(core, line_addr):
            return False
        is_upgrade = line is not None and line.state == L1_S
        sbuf.insert(line_addr)
        self._pending_words[core][line_addr] = 1 << (addr & 15)
        request = StoreRequest(core=core, line_addr=line_addr, t_issue=at)
        self._store_reqs[core][line_addr] = request
        if line is None:
            self._reserve_line(core, line_addr)
        else:
            self._protected[core].add(line_addr)
        if is_upgrade:
            self.stat_upgrades += 1
        self._send_req_ctl(
            T.ST, core, self._home_tile(line_addr), at,
            self._dir_getx, request, is_upgrade)
        return True

    def pending_store_count(self, core: int) -> int:
        return len(self.sbuf[core])

    def drain_barrier(self, core: int, at: int,
                      resume: Callable[[int], None]) -> None:
        """Wait until the store buffer is empty, then ``resume(time)``."""
        if len(self.sbuf[core]) == 0:
            resume(at)
            return

        def check(t: int) -> None:
            if len(self.sbuf[core]) == 0:
                resume(t)
            else:
                self._retire_hooks[core].append(check)

        self._retire_hooks[core].append(check)

    # ------------------------------------------------------------------
    # L1 helpers
    # ------------------------------------------------------------------

    def _wait_on_line(self, core: int, line_addr: int, addr: int, at: int,
                      on_done: Callable[[int, LoadRequest], None]) -> None:
        waiters = self._load_waiters[core].setdefault(line_addr, [])

        def resume(t: int) -> None:
            self._retry_load(core, addr, t, on_done)

        waiters.append(resume)

    def _apply_store_word(self, core: int, line: MesiL1Line,
                          addr: int) -> None:
        ctx = self.ctx
        ctx.l1_prof.on_write(core, addr)
        ctx.mem_prof.on_store_addr(addr)
        line.word_dirty |= 1 << (addr & 15)

    def _reserve_line(self, core: int, line_addr: int) -> MesiL1Line:
        self._protected[core].add(line_addr)
        line = self._allocate_l1(core, line_addr)
        line.state = L1_PENDING
        return line

    def _evict_l1_line(self, core: int, line: MesiL1Line) -> None:
        """Handle an L1 victim: profile + writeback messages."""
        ctx = self.ctx
        at = ctx.queue.now
        ctx.l1_prof.on_evict_line(core, base_word(line.line_addr))
        ctx.mem_prof.drop_copies(line.inst_handles(), invalidated=False)
        home = self._home_tile(line.line_addr)
        if line.state == L1_M:
            written = line.word_dirty
            self._send_wb(core, home, at, self._wb_words(written),
                          written.bit_count(), T.DEST_L2,
                          self._dir_dirty_wb, line.line_addr, core, written)
        elif line.state == L1_E:
            # Clean writeback: control-only PUTX, counted as overhead.
            self._send_overhead(
                T.OVH_WB_CTL, core, home, at,
                self._dir_clean_wb, line.line_addr, core)
        # Shared lines are dropped silently; the directory keeps a stale
        # sharer and may later send a spurious invalidation (acked anyway).

    # ------------------------------------------------------------------
    # Directory: GETS (loads)
    # ------------------------------------------------------------------

    def _dir_gets(self, req: LoadRequest, arrive: int) -> None:
        ctx = self.ctx
        line_addr = line_of(req.addr)
        home = self._home_tile(line_addr)
        if req.t_home_arrive is None:
            req.t_home_arrive = arrive
        t = ctx.l2_service_time(home, arrive)
        entry = self.l2[home].lookup(line_addr)
        if entry is not None and entry.busy:
            self._hold(entry, lambda tt: self._dir_gets(req, tt))
            return
        if entry is not None and entry.has_data and entry.owner is None:
            self._dir_gets_hit(req, entry, home, t)
            return
        if entry is not None and entry.owner is not None:
            self._dir_gets_fwd(req, entry, home, t)
            return
        self._dir_miss_to_memory(req, line_addr, home, t, major=T.LD)

    def _retry_gets(self, req: LoadRequest, at: int) -> None:
        req.retries += 1
        line_addr = line_of(req.addr)
        self._send_req_ctl(
            T.LD, req.core, self._home_tile(line_addr),
            at + NACK_RETRY_DELAY, self._dir_gets, req)

    def _dir_gets_hit(self, req: LoadRequest, entry: MesiL2Line, home: int,
                      t: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        grant_e = not entry.sharers
        if grant_e:
            entry.dir_state = DIR_EXCL
            entry.owner = req.core
            self.stat_e_grants += 1
        entry.sharers.add(req.core)
        entry.busy = True
        base = base_word(line_addr)
        ctx.l2_prof.on_use_line(home, base)
        core = req.core
        l1_entries = ctx.l1_prof.arrivals_line(core, base)
        insts = entry.mem_inst
        state = L1_E if grant_e else L1_S
        req.served_by = SERVED_L2
        req.t_fill_send = t
        self._send_data(
            T.LD, T.DEST_L1, home, core, t, l1_entries,
            self._l1_load_fill, req, state, insts, home, False)

    def _dir_gets_fwd(self, req: LoadRequest, entry: MesiL2Line, home: int,
                      t: int) -> None:
        """Line exclusively owned: forward the request to the owner."""
        entry.busy = True
        self._send_req_ctl(T.LD, home, entry.owner, t,
                           self._gets_at_owner, req, entry, entry.owner,
                           home)

    def _gets_at_owner(self, req: LoadRequest, entry: MesiL2Line,
                       owner: int, home: int, tt: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        oline = self.l1[owner].lookup(line_addr)
        if oline is None or oline.state not in (L1_E, L1_M):
            # Owner raced an eviction; its writeback will settle the
            # directory.  NACK the requestor to retry.
            self._nack(T.LD, owner, req.core, tt, self._retry_gets, req)
            self._clear_busy(entry)
            return
        was_m = oline.state == L1_M
        oline.state = L1_S
        core = req.core
        l1_entries = ctx.l1_prof.arrivals_line(core, base_word(line_addr))
        insts = oline.mem_inst
        req.served_by = SERVED_REMOTE_L1
        req.t_fill_send = tt
        self._send_data(
            T.LD, T.DEST_L1, owner, core, tt, l1_entries,
            self._l1_load_fill, req, L1_S, insts, home, False)
        if was_m:
            written = oline.word_dirty
            self._send_wb(owner, home, tt, self._wb_words(written),
                          written.bit_count(), T.DEST_L2,
                          self._dir_downgrade_data, entry, owner, core,
                          written)
        else:
            self._send_overhead(
                T.OVH_ACK, owner, home, tt,
                self._dir_downgrade_clean, entry, owner, core)

    def _dir_downgrade_data(self, entry: MesiL2Line, owner: int,
                            requestor: int, written: int, t: int) -> None:
        """The owner's dirty words (mask ``written``) reach the L2."""
        ctx = self.ctx
        home = self._home_tile(entry.line_addr)
        base = base_word(entry.line_addr)
        l2_on_write = ctx.l2_prof.on_write
        for off in mask_offsets(written):
            l2_on_write(home, base + off)
        entry.word_dirty |= written
        entry.l2_dirty = True
        self._dir_downgrade_clean(entry, owner, requestor, t)

    def _dir_downgrade_clean(self, entry: MesiL2Line, owner: int,
                             requestor: int, t: int) -> None:
        entry.dir_state = DIR_IDLE
        entry.owner = None
        entry.sharers.update((owner, requestor))
        entry.has_data = True

    # ------------------------------------------------------------------
    # Directory: GETX / Upgrade (stores)
    # ------------------------------------------------------------------

    def _dir_getx(self, req: StoreRequest, upgrade: bool,
                  arrive: int) -> None:
        ctx = self.ctx
        line_addr = req.line_addr
        home = self._home_tile(line_addr)
        if req.t_home_arrive is None:
            req.t_home_arrive = arrive
        t = ctx.l2_service_time(home, arrive)
        entry = self.l2[home].lookup(line_addr)
        if entry is not None and entry.busy:
            self._hold(entry, lambda tt: self._dir_getx(req, upgrade, tt))
            return
        if entry is None or not entry.has_data and entry.owner is None:
            self._dir_miss_to_memory_store(req, line_addr, home, t)
            return
        if entry.owner is not None and entry.owner != req.core:
            self._dir_getx_fwd(req, entry, home, t)
            return
        # Data at L2 (possibly with sharers) or requestor already owner.
        entry.busy = True
        sharers = [s for s in entry.sharers if s != req.core]
        acks_needed = len(sharers)
        still_sharer = req.core in entry.sharers
        for s in sharers:
            self._send_invalidation_for(line_addr, home, s, req.core, t)
        entry.sharers = {req.core}
        entry.dir_state = DIR_EXCL
        entry.owner = req.core

        if upgrade and still_sharer:
            # Data-less grant; requestor already has the line in S.
            self._send_resp_ctl(
                T.ST, home, req.core, t,
                self._l1_store_grant, req, home, acks_needed, None, None,
                False)
        else:
            base = base_word(line_addr)
            ctx.l2_prof.on_use_line(home, base)
            core = req.core
            l1_entries = ctx.l1_prof.arrivals_line(core, base)
            insts = entry.mem_inst
            self._send_data(
                T.ST, T.DEST_L1, home, core, t, l1_entries,
                self._l1_store_grant, req, home, acks_needed, l1_entries,
                insts, False)

    def _retry_getx(self, req: StoreRequest, upgrade: bool,
                    at: int) -> None:
        req.retries += 1
        # Re-evaluate upgrade vs full GETX: the line may have been
        # invalidated under us while we were NACKed.
        line = self.l1[req.core].lookup(req.line_addr, touch=False)
        still_upgrade = (upgrade and line is not None
                         and line.state == L1_S)
        self._send_req_ctl(
            T.ST, req.core, self._home_tile(req.line_addr),
            at + NACK_RETRY_DELAY,
            self._dir_getx, req, still_upgrade)

    def _dir_getx_fwd(self, req: StoreRequest, entry: MesiL2Line, home: int,
                      t: int) -> None:
        entry.busy = True
        self._send_req_ctl(T.ST, home, entry.owner, t,
                           self._getx_at_owner, req, entry, entry.owner,
                           home)

    def _getx_at_owner(self, req: StoreRequest, entry: MesiL2Line,
                       owner: int, home: int, tt: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        oline = self.l1[owner].lookup(line_addr, touch=False)
        if oline is None or oline.state not in (L1_E, L1_M):
            self._nack(T.ST, owner, req.core, tt,
                       self._retry_getx, req, False)
            self._clear_busy(entry)
            return
        core = req.core
        l1_entries = ctx.l1_prof.arrivals_line(core, base_word(line_addr))
        insts = oline.mem_inst
        self._invalidate_l1_copy(owner, oline)
        self.l1[owner].remove(line_addr)
        entry.owner = core
        entry.sharers = {core}
        entry.dir_state = DIR_EXCL
        self._send_data(
            T.ST, T.DEST_L1, owner, core, tt, l1_entries,
            self._l1_store_grant, req, home, 0, l1_entries, insts, False)

    def _send_invalidation_for(self, line_addr: int, home: int, sharer: int,
                               requestor: int, t: int) -> None:
        self._send_overhead(T.OVH_INVAL, home, sharer, t,
                            self._invalidate_at_sharer, line_addr, sharer,
                            requestor)

    def _invalidate_at_sharer(self, line_addr: int, sharer: int,
                              requestor: int, tt: int) -> None:
        line = self.l1[sharer].lookup(line_addr, touch=False)
        if line is not None and line.state != L1_PENDING:
            self._invalidate_l1_copy(sharer, line)
            self.l1[sharer].remove(line_addr)
        self._send_overhead(T.OVH_ACK, sharer, requestor, tt)

    def _invalidate_l1_copy(self, core: int, line: MesiL1Line) -> None:
        ctx = self.ctx
        ctx.l1_prof.on_invalidate_line(core, base_word(line.line_addr))
        ctx.mem_prof.drop_copies(line.inst_handles(), invalidated=True)

    # ------------------------------------------------------------------
    # Memory path
    # ------------------------------------------------------------------

    def _dir_miss_to_memory(self, req: LoadRequest, line_addr: int,
                            home: int, t: int, major: str) -> None:
        """L2 load miss: reserve the L2 line and fetch from memory."""
        ctx = self.ctx
        entry = self._reserve_l2(home, line_addr)
        entry.busy = True
        req.went_to_memory = True
        req.t_home_depart = t
        req.served_by = SERVED_MEMORY
        mc = ctx.mc_tile(line_addr)
        self._send_req_ctl(major, home, mc, t,
                           self._mc_read, req, entry, home, mc)

    def _mc_read(self, req: LoadRequest, entry: MesiL2Line, home: int,
                 mc: int, arrive: int) -> None:
        req.t_arrive_mc = arrive
        line_addr = entry.line_addr
        self.ctx.dram_for(line_addr).read(
            line_addr, self._load_dram_done, req, entry, home, mc)

    def _load_dram_done(self, req: LoadRequest, entry: MesiL2Line,
                        home: int, mc: int, t: int) -> None:
        req.t_leave_mc = t
        insts = self.ctx.mem_prof.fetch_line(base_word(entry.line_addr))
        self.acted.add("mem_to_l1")
        if self.mem_to_l1:
            self._mc_respond_direct_l1(req, entry, home, mc, t, insts)
        else:
            self._mc_respond_via_l2(req, entry, home, mc, t, insts)

    def _mc_respond_via_l2(self, req: LoadRequest, entry: MesiL2Line,
                           home: int, mc: int, t: int, insts: range) -> None:
        """Baseline MESI: memory -> L2 -> L1."""
        ctx = self.ctx
        line_addr = entry.line_addr
        l2_entries = ctx.l2_prof.arrivals_line(home, base_word(line_addr))
        self._send_data(T.LD, T.DEST_L2, mc, home, t, l2_entries,
                        self._load_at_l2, req, entry, home, insts)

    def _load_at_l2(self, req: LoadRequest, entry: MesiL2Line, home: int,
                    insts: range, tt: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        self._fill_l2_data(entry, home, insts)
        core = req.core
        l1_entries = ctx.l1_prof.arrivals_line(core, base_word(line_addr))
        grant_e = not entry.sharers
        if grant_e:
            entry.dir_state = DIR_EXCL
            entry.owner = core
            self.stat_e_grants += 1
        entry.sharers.add(core)
        state = L1_E if grant_e else L1_S
        req.t_fill_send = tt
        self._send_data(
            T.LD, T.DEST_L1, home, core, tt, l1_entries,
            self._l1_load_fill, req, state, entry.mem_inst, home, True)

    def _mc_respond_direct_l1(self, req: LoadRequest, entry: MesiL2Line,
                              home: int, mc: int, t: int,
                              insts: range) -> None:
        """MMemL1: memory -> L1, then unblock+data L1 -> L2."""
        ctx = self.ctx
        line_addr = entry.line_addr
        core = req.core
        l1_entries = ctx.l1_prof.arrivals_line(core, base_word(line_addr))
        grant_e = not entry.sharers
        if grant_e:
            entry.dir_state = DIR_EXCL
            entry.owner = core
            self.stat_e_grants += 1
        entry.sharers.add(core)
        state = L1_E if grant_e else L1_S
        req.t_fill_send = t
        self._send_data(T.LD, T.DEST_L1, mc, core, t, l1_entries,
                        self._load_direct_at_l1, req, entry, home, state,
                        insts)

    def _load_direct_at_l1(self, req: LoadRequest, entry: MesiL2Line,
                           home: int, state: int, insts: range,
                           tt: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        self._install_l1_fill(req.core, line_addr, state, insts)
        self._complete_load(req, tt)
        # Combined unblock+data carries the line to the inclusive L2;
        # profiled as load traffic (paper Section 3.3).
        l2_entries = ctx.l2_prof.arrivals_line(home, base_word(line_addr))
        self._send_data(T.LD, T.DEST_L2, req.core, home, tt, l2_entries,
                        self._direct_fill_at_l2, entry, home, insts)

    def _direct_fill_at_l2(self, entry: MesiL2Line, home: int, insts: range,
                           _t: int) -> None:
        self._fill_l2_data(entry, home, insts)
        self._clear_busy(entry)

    def _dir_miss_to_memory_store(self, req: StoreRequest, line_addr: int,
                                  home: int, t: int) -> None:
        ctx = self.ctx
        entry = self._reserve_l2(home, line_addr)
        entry.busy = True
        req.went_to_memory = True
        req.t_home_depart = t
        mc = ctx.mc_tile(line_addr)
        self._send_req_ctl(T.ST, home, mc, t,
                           self._store_at_mc, req, entry, home, mc)

    def _store_at_mc(self, req: StoreRequest, entry: MesiL2Line, home: int,
                     mc: int, arrive: int) -> None:
        req.t_arrive_mc = arrive
        line_addr = entry.line_addr
        self.ctx.dram_for(line_addr).read(
            line_addr, self._store_dram_done, req, entry, home, mc)

    def _store_dram_done(self, req: StoreRequest, entry: MesiL2Line,
                         home: int, mc: int, tt: int) -> None:
        ctx = self.ctx
        req.t_leave_mc = tt
        line_addr = entry.line_addr
        base = base_word(line_addr)
        insts = ctx.mem_prof.fetch_line(base)
        self.acted.add("mem_to_l1")
        if self.mem_to_l1:
            # Write fill skips the L2 entirely: the writeback will
            # overwrite it (Section 3.3).
            core = req.core
            l1_entries = ctx.l1_prof.arrivals_line(core, base)
            entry.dir_state = DIR_EXCL
            entry.owner = core
            entry.sharers = {core}
            entry.has_data = False
            self._send_data(
                T.ST, T.DEST_L1, mc, core, tt, l1_entries,
                self._l1_store_grant, req, home, 0, l1_entries, insts,
                True)
        else:
            l2_entries = ctx.l2_prof.arrivals_line(home, base)
            self._send_data(T.ST, T.DEST_L2, mc, home, tt, l2_entries,
                            self._store_at_l2, req, entry, home, insts)

    def _store_at_l2(self, req: StoreRequest, entry: MesiL2Line, home: int,
                     insts: range, t3: int) -> None:
        ctx = self.ctx
        line_addr = entry.line_addr
        self._fill_l2_data(entry, home, insts)
        core = req.core
        entry.dir_state = DIR_EXCL
        entry.owner = core
        entry.sharers = {core}
        l1_entries = ctx.l1_prof.arrivals_line(core, base_word(line_addr))
        self._send_data(
            T.ST, T.DEST_L1, home, core, t3, l1_entries,
            self._l1_store_grant, req, home, 0, l1_entries,
            entry.mem_inst, False)

    # ------------------------------------------------------------------
    # L1 fill / completion
    # ------------------------------------------------------------------

    def _install_l1_fill(self, core: int, line_addr: int, state: int,
                         insts: Optional[range]) -> None:
        """Install a whole line whose instances are ``insts`` (a fill's
        range, or None)."""
        line = self._allocate_l1(core, line_addr)
        line.reset_words()
        line.state = state
        if insts is not None:
            line.set_line_insts(insts)
            self.ctx.mem_prof.install_copies(insts)

    def _l1_load_fill(self, req: LoadRequest, state: int,
                      insts: Optional[range], home: int,
                      from_memory: bool, t: int) -> None:
        line_addr = line_of(req.addr)
        self._install_l1_fill(req.core, line_addr, state, insts)
        self._complete_load(req, t)
        # Directory unblock (overhead traffic).
        self._send_overhead(
            T.OVH_UNBLOCK, req.core, home, t,
            self._dir_unblock, home, line_addr)

    @staticmethod
    def _hold(entry: MesiL2Line, waiter: Callable[[int], None]) -> None:
        """Hold a request back until ``entry``'s transition ends."""
        if entry.waiters is None:
            entry.waiters = []
        entry.waiters.append(waiter)

    def _clear_busy(self, entry: MesiL2Line) -> None:
        """End a transition: release the line and replay one held request."""
        entry.busy = False
        if entry.waiters:
            waiter = entry.waiters.pop(0)
            now = self._queue.now
            self._schedule_call(now + 1, waiter, now + 1)

    def _dir_unblock(self, home: int, line_addr: int, _t: int = 0) -> None:
        entry = self.l2[home].lookup(line_addr, touch=False)
        if entry is not None:
            self._clear_busy(entry)

    def _complete_load(self, req: LoadRequest, t: int) -> None:
        core = req.core
        line_addr = line_of(req.addr)
        self._protected[core].discard(line_addr)
        line = self.l1[core].lookup(line_addr, touch=False)
        if line is not None:
            self._profile_load_hit(core, line, req.addr)
        req.on_done(t + 1, req)
        self._wake_line_waiters(core, line_addr, t + 1)

    def _l1_store_grant(self, req: StoreRequest, home: int,
                        acks_needed: int, data_entries, insts,
                        unblock_ctl_only: bool, t: int) -> None:
        """Data/grant arrived at the L1; finish the store transaction.

        A data-less grant (an upgrade) carries no ``data_entries``; a
        data grant installs the line with instances ``insts`` (a fill's
        range, or None)."""
        core = req.core
        line_addr = req.line_addr
        if data_entries is not None:
            self._install_l1_fill(core, line_addr, L1_M, insts)
        else:
            line = self.l1[core].lookup(line_addr, touch=False)
            if line is not None:
                line.state = L1_M
        line = self.l1[core].lookup(line_addr, touch=False)
        # Apply the deferred store words.
        offsets = self._pending_words[core].pop(line_addr, 0)
        base = base_word(line_addr)
        for off in mask_offsets(offsets):
            if line is not None:
                self._apply_store_word(core, line, base + off)
        # Ack latency: completion waits for the last invalidation ack; we
        # approximate ack arrival as one max-distance control message.
        self._store_reqs[core].pop(line_addr, None)
        self._last_retire_mem[core] = req.went_to_memory
        self.sbuf[core].retire(line_addr)
        self._protected[core].discard(line_addr)
        # Unblock the directory.
        self._send_overhead(
            T.OVH_UNBLOCK, core, home, t,
            self._dir_unblock, home, line_addr)
        self._wake_line_waiters(core, line_addr, t + 1)
        self._fire_retire_hooks(core, t + 1)

    def _wake_line_waiters(self, core: int, line_addr: int, t: int) -> None:
        waiters = self._load_waiters[core].pop(line_addr, None)
        if waiters:
            queue = self._queue
            now = queue.now
            when = t if t >= now else now
            schedule_call = queue.schedule_call
            for resume in waiters:
                schedule_call(when, resume, t)

    # ------------------------------------------------------------------
    # L2 allocation / eviction / writebacks
    # ------------------------------------------------------------------

    def _reserve_l2(self, home: int, line_addr: int) -> MesiL2Line:
        cache = self.l2[home]
        existing = cache.lookup(line_addr)
        if existing is not None:
            return existing
        # Evict a non-busy victim; if the LRU victim is busy, walk up.
        victim = cache.victim_for(line_addr)
        if victim is not None and (victim.busy or victim.owner is not None
                                   or victim.sharers):
            victim = self._find_l2_victim(home, line_addr)
        if victim is not None:
            cache.remove(victim.line_addr)
            self._evict_l2_line(home, victim)
        line, auto_victim = cache.allocate(line_addr)
        if auto_victim is not None:
            self._evict_l2_line(home, auto_victim)
        return line

    def _find_l2_victim(self, home: int, line_addr: int) -> Optional[MesiL2Line]:
        cache = self.l2[home]
        fallback = None
        for candidate in cache.lru_order(line_addr):
            entry = cache.lookup(candidate, touch=False)
            if entry.busy:
                continue
            if entry.owner is None and not entry.sharers:
                return entry
            if fallback is None:
                fallback = entry
        return fallback   # may have sharers -> recall; None only if all busy

    def _evict_l2_line(self, home: int, entry: MesiL2Line) -> None:
        """Inclusive L2 eviction: recall L1 copies, write back if dirty."""
        ctx = self.ctx
        at = ctx.queue.now
        line_addr = entry.line_addr
        # Requests held back on this line must be replayed: they will
        # re-dispatch against the (now absent) line and miss to memory.
        if entry.waiters:
            waiters, entry.waiters = entry.waiters, None
            schedule_call = self._schedule_call
            for waiter in waiters:
                schedule_call(at + 1, waiter, at + 1)
        # Recall every L1 copy (invalidation + ack overhead); M data comes
        # back as writeback traffic.
        holders = set(entry.sharers)
        if entry.owner is not None:
            holders.add(entry.owner)
        for holder in holders:
            line = self.l1[holder].lookup(line_addr, touch=False)
            self._send_overhead(T.OVH_INVAL, home, holder, at)
            if line is not None and line.state != L1_PENDING:
                if line.state == L1_M:
                    dirty = line.word_dirty
                    entry.word_dirty |= dirty
                    entry.l2_dirty = True
                    self._send_wb(holder, home, at, self._wb_words(dirty),
                                  dirty.bit_count(), T.DEST_L2, self._ignore)
                else:
                    self._send_overhead(T.OVH_ACK, holder, home, at)
                self._invalidate_l1_copy(holder, line)
                self.l1[holder].remove(line_addr)
            else:
                self._send_overhead(T.OVH_ACK, holder, home, at)
        # Profile L2 eviction.
        ctx.l2_prof.on_evict_line(home, base_word(line_addr))
        ctx.mem_prof.drop_copies(entry.inst_handles(), invalidated=False)
        if entry.l2_dirty and entry.has_data:
            mc = ctx.mc_tile(line_addr)
            dirty = entry.word_dirty
            self._send_wb(home, mc, at, self._wb_words(dirty),
                          dirty.bit_count(), T.DEST_MEM, self._wb_to_dram,
                          line_addr)

    def _wb_words(self, dirty: int) -> int:
        """Words on the wire of a writeback (L1 and L2->memory) of a line
        whose dirty mask is ``dirty``; the dirty words are the Used
        ones.  Witnesses ``dirty_wb_only``, which acts when the line
        has clean words."""
        if dirty == FULL_MASK:
            return WORDS_PER_LINE
        self.acted.add("dirty_wb_only")
        return dirty.bit_count() if self._dirty_wb_only else WORDS_PER_LINE

    def _fill_l2_data(self, entry: MesiL2Line, home: int,
                      insts: range) -> None:
        entry.has_data = True
        entry.set_line_insts(insts)
        self.ctx.mem_prof.install_copies(insts)

    def _dir_dirty_wb(self, line_addr: int, core: int, written: int,
                      t: int) -> None:
        """A PUTX with data (dirty mask ``written``) arrived at the
        directory."""
        ctx = self.ctx
        home = self._home_tile(line_addr)
        entry = self.l2[home].lookup(line_addr, touch=False)
        if entry is not None:
            base = base_word(line_addr)
            l2_on_write = ctx.l2_prof.on_write
            for off in mask_offsets(written):
                l2_on_write(home, base + off)
            entry.word_dirty |= written
            entry.l2_dirty = True
            entry.has_data = True
            if entry.owner == core:
                entry.owner = None
                entry.dir_state = DIR_IDLE
            entry.sharers.discard(core)
        # Writeback ack (control, WB category); fire-and-forget, so it
        # is never routed — the ledger counts it on the mesh to keep the
        # energy-model flit-hop counter ledger-exact.
        ctx.send_wb_ack(home, core)

    def _dir_clean_wb(self, line_addr: int, core: int, t: int) -> None:
        home = self._home_tile(line_addr)
        entry = self.l2[home].lookup(line_addr, touch=False)
        if entry is not None:
            if entry.owner == core:
                entry.owner = None
                entry.dir_state = DIR_IDLE
            entry.sharers.discard(core)
        self._send_overhead(T.OVH_WB_CTL, home, core, t)

    def _nack(self, major: str, src: int, dst: int, t: int,
              retry: Callable, *args) -> None:
        self.stat_nacks += 1
        self._send_overhead(T.OVH_NACK, src, dst, t, retry, *args)

    # ------------------------------------------------------------------
    # Barrier hook (MESI has no barrier-time protocol work)
    # ------------------------------------------------------------------

    def on_barrier(self, written_regions) -> None:
        """MESI needs no self-invalidation; hardware coherence handles it."""
