"""The DeNovo protocol core and the paper's five optimizations.

``DenovoSystem`` is a protocol core on top of
:class:`~repro.coherence.kernel.CoherenceKernel`; the word-granular
coherence state machine lives here, and every per-rung behaviour is a
``ProtocolConfig`` flag the core copies into an attribute when built.

Baseline DeNovo (Choi et al. [8], plus the thesis's write-combining
extension):

* word-granular coherence: L1 words are Invalid, Valid or Registered
  (owned + dirty); the L2 tracks per-word registration instead of sharer
  lists;
* no invalidation/ack/unblock machinery — stale data is removed by
  *self-invalidation* at barriers, guided by software regions;
* L1 write-validate (a write miss allocates without fetching), L2
  fetch-on-write (an L2 write miss fetches the line from memory);
* dirty-words-only L1->L2 writebacks; non-inclusive L2;
* write-combining table batching word registrations per line (32 entries,
  10,000-cycle timeout, flushed at releases/barriers/evictions).

Optimizations (paper Section 3.1), one flag each:

* ``flex_l1`` — Flex: cache-sourced responses return the communication
  region's words instead of the whole line;
* ``l2_write_validate`` (an L2 write miss fetches nothing) and
  ``l2_dirty_wb_only`` (L2->memory writebacks carry only the dirty
  words) — DValidateL2;
* ``mem_to_l1`` — memory responses go to the L1 and L2 in parallel,
  filtered by the L2's dirty-word mask;
* ``flex_l2`` — Flex extended to memory: the controller fetches only
  same-DRAM-row lines of the communication region and drops non-region
  words (counted as Excess waste);
* ``bypass_l2_response`` / ``bypass_l2_request`` — annotated regions'
  memory responses skip the L2 entirely; Bloom-filter-guarded requests
  go straight from the L1 to the memory controller.

Every read of a flag attribute witnesses the flag (see
``CoherenceKernel.acted``): ``bypass_l2_response`` acts at an address
in a ``bypass_l2`` region (in ``load`` only with request bypass, whose
branch it gates there), ``flex_l1``/``flex_l2`` at an address with a
Flex pattern, ``mem_to_l1`` at a memory response bound for the L2,
``l2_write_validate`` at an L2 write miss and ``l2_dirty_wb_only`` at
an L2 writeback with clean words.

Message continuations use the closure-free scheduling convention
(``handler, *args`` with the arrival time appended as the last
argument); the hot load/store/registration/fill paths allocate no
lambdas.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bloom.filters import L1FilterShadow, SliceFilterBank
from repro.cache.sa_cache import FULL_MASK, CacheLine, mask_offsets
from repro.cache.writebuffer import (
    WRITE_COMBINE_TIMEOUT, WriteCombineEntry, WriteCombineTable)
from repro.coherence.kernel import CoherenceKernel
from repro.common.addressing import (
    LINK_BYTES, WORDS_PER_FLIT, WORDS_PER_LINE, base_word, line_of,
    offset_of, words_of_line)
from repro.core.context import (
    NACK_RETRY_DELAY, SERVED_L2, SERVED_MEMORY, SERVED_REMOTE_L1,
    LoadRequest, SimContext)
from repro.network import traffic as T

# Hot paths inline line_of/offset_of as ``addr >> 4`` / ``addr & 15``
# (64-byte lines of 4-byte words; pinned in repro.common.addressing).

#: A data message carries at most four flits (64 bytes) of words, which
#: caps the words of one Flex response.
MAX_DATA_FLITS = 4
MAX_MESSAGE_WORDS = MAX_DATA_FLITS * WORDS_PER_FLIT

# Per-word state is two bit masks per line (bit i is word i), at both
# levels: ``valid`` holds every word that is not Invalid and ``reg`` the
# Registered words, a subset of ``valid``.  So a word is Invalid outside
# ``valid``, Registered in ``reg`` and Valid in ``valid & ~reg``.  An L1
# word is Registered when this core owns the latest value; an L2 word
# when some L1 owns it (the L2's data, if any, is stale).
#
# A data response carries either words of one line in offset order (a
# whole line when it has all 16) or, under Flex, a word list that may
# span lines.  A whole line goes through the profilers' line calls and
# a memory fill of one installs its instance range as is; partial lines
# and Flex lists go word by word.  The helpers below serve L1 and L2
# lines alike.


def _whole_line(words: List[int]) -> int:
    """The line ``words`` fill whole and in offset order, or -1."""
    if len(words) == WORDS_PER_LINE:
        base = words[0]
        if not base & 15 and words == list(
                range(base, base + WORDS_PER_LINE)):
            return base >> 4
    return -1


def _arrivals(prof, unit: int, line: Optional["DenovoL1Line"], words):
    """Profile one line's ``words`` arriving at cache ``unit``.

    ``line`` is the unit's copy of that line, or None.  A whole line
    the unit holds none of costs one ``arrivals_line`` call; otherwise
    each word is flagged by whether the unit already holds it.
    """
    held = line.valid if line is not None else 0
    if not held:
        if len(words) == WORDS_PER_LINE:
            return prof.arrivals_line(unit, words[0])
        return prof.arrivals_words(unit, words, [False] * len(words))
    return prof.arrivals_words(unit, words,
                               [held >> (w & 15) & 1 == 1 for w in words])


def _install(line: "DenovoL1Line", words, insts, mem_prof) -> None:
    """Install one line's ``words`` where ``line`` holds them Invalid.

    ``insts`` holds each word's memory instance (or None), in the order
    of ``words``.  A memory fill's whole line (its instances a
    ``range``) landing on an all-Invalid line takes the range as is.
    Otherwise only the Invalid words fill: a line that a store
    write-validated while the fill was in flight keeps its Registered
    words.
    """
    held = line.valid
    if (not held and len(words) == WORDS_PER_LINE
            and insts.__class__ is range):
        line.valid = FULL_MASK
        line.set_line_insts(insts)
        mem_prof.install_copies(insts)
        return
    install = mem_prof.install_copy
    valid = held
    for word, inst in zip(words, insts):
        bit = 1 << (word & 15)
        if held & bit:
            continue
        valid |= bit
        if inst is None:
            line.inst_mask &= ~bit
        else:
            line.add_inst(word & 15, inst)
            install(inst)
    line.valid = valid


def _fill_word(line: "DenovoL1Line", off: int, inst: Optional[int],
               install) -> None:
    """Word ``off`` of ``line``, Invalid, fills with a copy of ``inst``
    (None for a word with no memory instance): one word of
    :func:`_install`, for fills that go word by word."""
    line.valid |= 1 << off
    if inst is None:
        line.inst_mask &= ~(1 << off)
    else:
        line.add_inst(off, inst)
        install(inst)


class DenovoL1Line(CacheLine):
    """A DeNovo line: ``valid`` and ``reg`` word masks (see above)."""

    __slots__ = ("valid", "reg")

    def __init__(self, line_addr: int) -> None:
        super().__init__(line_addr)
        self.valid = 0
        self.reg = 0


class DenovoL2Line(DenovoL1Line):
    """An L2 line.  ``owners[off]`` names the registrant of a word in
    ``reg``; the list is made at the line's first registration, and a
    slot outside ``reg`` is stale."""

    __slots__ = ("owners", "in_bloom")

    def __init__(self, line_addr: int) -> None:
        super().__init__(line_addr)
        self.owners: Optional[List[int]] = None
        self.in_bloom = False

    def dirty_mask(self) -> int:
        """Words the memory controller must not return from DRAM."""
        return self.word_dirty | self.reg


class DenovoSystem(CoherenceKernel):
    """All L1s, the shared L2 and the DeNovo logic of one machine."""

    l1_line_cls = DenovoL1Line
    l2_line_cls = DenovoL2Line

    WITNESSED = frozenset((
        "mem_to_l1", "l2_write_validate", "l2_dirty_wb_only", "flex_l1",
        "flex_l2", "bypass_l2_response"))
    # Request bypass builds the Bloom banks, whose counters are part of
    # the result.
    ALWAYS_ACTING = frozenset(("bypass_l2_request",))

    def __init__(self, ctx: SimContext) -> None:
        super().__init__(ctx)
        cfg = ctx.config
        self.wct = [WriteCombineTable(cfg.write_combine_entries,
                                      WRITE_COMBINE_TIMEOUT)
                    for _ in range(cfg.num_tiles)]
        self._outstanding_regs = [0] * cfg.num_tiles
        # MSHR-style coalescing: lines with a fill in flight, mapped to
        # loads waiting for that fill (prevents duplicate memory fetches
        # racing the streamed Flex prefetch responses).
        self._inflight_fills: List[Dict[int, List[Callable[[int], None]]]] = [
            dict() for _ in range(cfg.num_tiles)]
        self._wct_timer_armed = [False] * cfg.num_tiles
        self.stat_registrations = 0
        self.stat_reg_invalidations = 0
        self.stat_nacks = 0
        self.stat_direct_requests = 0
        self.stat_bypass_queries = 0
        self.stat_bloom_copies = 0
        self.stat_self_invalidated_words = 0
        proto = ctx.proto
        self._bypass_response = proto.bypass_l2_response
        self._bypass_request = proto.bypass_l2_request
        self._mem_to_l1 = proto.mem_to_l1
        self._flex_l1 = proto.flex_l1
        self._flex_l2 = proto.flex_l2
        self._l2_dirty_wb_only = proto.l2_dirty_wb_only
        self._l2_fetch_on_write = not proto.l2_write_validate
        if self._bypass_request:
            self.slice_blooms = [
                SliceFilterBank(cfg.bloom_filters_per_slice,
                                cfg.bloom_entries, seed=tile + 1)
                for tile in range(cfg.num_tiles)]
            # Every L1 shadows every slice's filters with that slice's
            # hash objects, so projections union bit for bit.
            self.l1_blooms = [
                L1FilterShadow(self.slice_blooms)
                for _ in range(cfg.num_tiles)]
        else:
            self.slice_blooms = []
            self.l1_blooms = []

    def stats(self) -> Dict[str, int]:
        return {
            "bloom_copies": self.stat_bloom_copies,
            "bypass_queries": self.stat_bypass_queries,
            "direct_requests": self.stat_direct_requests,
            "nacks": self.stat_nacks,
            "reg_invalidations": self.stat_reg_invalidations,
            "registrations": self.stat_registrations,
            "self_invalidated_words": self.stat_self_invalidated_words,
        }

    def energy_counters(self) -> Dict[str, int]:
        counters = super().energy_counters()
        counters.update(
            bloom_slice_checks=sum(b.stat_checks for b in self.slice_blooms),
            bloom_slice_updates=sum(b.stat_updates for b in self.slice_blooms),
            bloom_shadow_checks=sum(s.stat_checks for s in self.l1_blooms),
            bloom_shadow_inserts=sum(s.stat_inserts for s in self.l1_blooms),
            bloom_shadow_installs=sum(s.stat_installs
                                      for s in self.l1_blooms),
        )
        return counters

    # ------------------------------------------------------------------
    # Core-facing interface
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, at: int,
             on_done: Callable[[int, LoadRequest], None]) -> Optional[int]:
        line_addr = addr >> 4
        off = addr & 15
        line = self.l1[core].lookup(line_addr)
        if line is not None and line.valid >> off & 1:
            # Hottest path in the protocol: _profile_load_hit inlined.
            ctx = self.ctx
            ctx.l1_prof.on_use(core, addr)
            if line.inst_mask >> off & 1:
                ctx.mem_prof.on_load(line.mem_inst[off])
            return at + 1
        waiters = self._inflight_fills[core].get(line_addr)
        if waiters is not None:
            # A fill for this line is already in flight: wait for it
            # instead of issuing a duplicate request.
            waiters.append(
                lambda t: self._retry_load(core, addr, t, on_done))
            return None
        if line is None and not self._can_reserve(core, line_addr):
            self._retire_hooks[core].append(
                lambda t: self._retry_load(core, addr, t, on_done))
            return None
        request = LoadRequest(core=core, addr=addr, t_issue=at,
                              on_done=on_done)
        if line is None:
            self._protected[core].add(line_addr)
        # Without request bypass both branches send the request to the
        # L2, so only request bypass makes this a read of the response
        # bypass flag.
        if self._bypass_request and self._bypasses(addr):
            self._bypass_request_path(request, at)
        else:
            self._send_req_ctl(
                T.LD, core, self._home_tile(line_addr), at,
                self._l2_gets, request)
        return None

    def store(self, core: int, addr: int, at: int) -> bool:
        line_addr = addr >> 4
        line = self.l1[core].lookup(line_addr)
        if line is None:
            # Write-validate: allocate without fetching.
            line = self._allocate_l1(core, line_addr)
        already_owned = line.reg >> (addr & 15) & 1
        self._apply_store_word(core, line, addr)
        if already_owned:
            return True
        wct = self.wct[core]
        if not wct.has(line_addr) and wct.is_full():
            oldest = wct.oldest()
            wct.pop(oldest.line_addr)
            self._send_registration(core, oldest, at)
        entry = wct.add_store(addr, at)
        if entry.is_full_line:
            wct.pop(line_addr)
            self._send_registration(core, entry, at)
        else:
            self._arm_wct_timer(core)
        return True

    def pending_store_count(self, core: int) -> int:
        return self._outstanding_regs[core] + len(self.wct[core])

    def drain_barrier(self, core: int, at: int,
                      resume: Callable[[int], None]) -> None:
        """Flush the write-combining table, wait for registration acks."""
        for entry in self.wct[core].drain():
            self._send_registration(core, entry, at)
        if self._outstanding_regs[core] == 0:
            resume(at)
            return

        def check(t: int) -> None:
            if self._outstanding_regs[core] == 0:
                resume(t)
            else:
                self._retire_hooks[core].append(check)

        self._retire_hooks[core].append(check)

    def on_barrier(self, written_regions: Set[int]) -> None:
        """Barrier-time work: self-invalidation and Bloom shadow clears."""
        ctx = self.ctx
        find = ctx.regions.find
        l1_invalidate = ctx.l1_prof.on_invalidate_mask
        mem_drop = ctx.mem_prof.drop_copies
        for core in range(ctx.config.num_tiles):
            for line in self.l1[core].resident_lines():
                clean = line.valid & ~line.reg
                if not clean:
                    continue
                base = base_word(line.line_addr)
                region = find(base)
                if region is None or region.region_id not in written_regions:
                    continue
                l1_invalidate(core, base, clean)
                mem_drop(line.take_insts(clean), invalidated=True)
                line.valid = line.reg
                self.stat_self_invalidated_words += clean.bit_count()
        for shadow in self.l1_blooms:
            shadow.clear()

    def finalize(self) -> None:
        """Flush any write-combining leftovers at end of simulation."""
        now = self.ctx.queue.now
        for core in range(self.ctx.config.num_tiles):
            for entry in self.wct[core].drain():
                self._send_registration(core, entry, now)

    # ------------------------------------------------------------------
    # L1 basics
    # ------------------------------------------------------------------

    def _apply_store_word(self, core: int, line: DenovoL1Line,
                          addr: int) -> None:
        bit = 1 << (addr & 15)
        ctx = self.ctx
        ctx.l1_prof.on_write(core, addr)
        ctx.mem_prof.on_store_addr(addr)
        if line.inst_mask & bit:
            # The local copy no longer derives from the memory instance.
            line.inst_mask ^= bit
            ctx.mem_prof.drop_copy(line.mem_inst[addr & 15],
                                   invalidated=False)
        line.valid |= bit
        line.reg |= bit
        line.word_dirty |= bit

    def _evict_l1_line(self, core: int, line: DenovoL1Line) -> None:
        """Evict an L1 line: profile, then write back dirty words only."""
        ctx = self.ctx
        at = ctx.queue.now
        line_addr = line.line_addr
        ctx.l1_prof.on_evict_line(core, base_word(line_addr))
        ctx.mem_prof.drop_copies(line.inst_handles(), invalidated=False)
        pending = self.wct[core].pop(line_addr)
        dirty = line.word_dirty
        if not dirty:
            return
        home = self._home_tile(line_addr)
        pending_mask = pending.word_mask if pending is not None else 0
        # Paper: eviction with pending registrations sends two messages —
        # a plain writeback for already-registered words and a combined
        # writeback+register for pending ones; both profiled as WB traffic.
        for offsets in (dirty & ~pending_mask, dirty & pending_mask):
            if not offsets:
                continue
            n_words = offsets.bit_count()
            self._send_wb(
                core, home, at, n_words, n_words, T.DEST_L2,
                self._l2_accept_wb, core, line_addr, offsets)
        if self.l1_blooms:
            self.l1_blooms[core].note_writeback(home, line_addr)

    # ------------------------------------------------------------------
    # Registration (store) path
    # ------------------------------------------------------------------

    def _arm_wct_timer(self, core: int) -> None:
        if self._wct_timer_armed[core]:
            return
        deadline = self.wct[core].next_deadline()
        if deadline is None:
            return
        self._wct_timer_armed[core] = True
        now = self._queue.now
        self._schedule_call(deadline if deadline >= now else now,
                            self._wct_timer_fire, core)

    def _wct_timer_fire(self, core: int) -> None:
        self._wct_timer_armed[core] = False
        now = self.ctx.queue.now
        for entry in self.wct[core].expired(now):
            self._send_registration(core, entry, now)
        self._arm_wct_timer(core)

    def _send_registration(self, core: int, entry: WriteCombineEntry,
                           at: int) -> None:
        """One registration request message for a line's pending words."""
        self._outstanding_regs[core] += 1
        self.stat_registrations += 1
        line_addr = entry.line_addr
        home = self._home_tile(line_addr)
        now = self._queue.now
        self._send_req_ctl(
            T.ST, core, home, at if at >= now else now,
            self._l2_register, core, line_addr, entry.word_mask)

    def _l2_register(self, core: int, line_addr: int, mask: int,
                     arrive: int) -> None:
        ctx = self.ctx
        home = self._home_tile(line_addr)
        t = ctx.l2_service_time(home, arrive)
        entry = self.l2[home].lookup(line_addr)
        if entry is None:
            entry = self._reserve_l2(home, line_addr)
            self.acted.add("l2_write_validate")
            if self._l2_fetch_on_write:
                # Baseline L2 fetch-on-write: a write miss at the L2
                # fetches the whole line from memory (store traffic).
                self._fetch_line_for_write(entry, home, t)
        # A registration that raced the registrant's own eviction must
        # not install stale ownership: keep only words the core still
        # holds registered (the eviction's writeback covers the rest).
        held_line = self.l1[core].lookup(line_addr, touch=False)
        mask = mask & held_line.reg if held_line is not None else 0
        if mask == 0:
            self._send_resp_ctl(T.ST, home, core, t, self._reg_ack, core)
            return
        base = base_word(line_addr)
        reg = entry.reg
        valid = entry.valid
        owners = entry.owners
        if owners is None:
            owners = entry.owners = [core] * WORDS_PER_LINE
        l2_on_write = ctx.l2_prof.on_write
        for off in mask_offsets(mask):
            word = base + off
            if reg >> off & 1:
                old_owner = owners[off]
                if old_owner != core:
                    self.stat_reg_invalidations += 1
                    self._invalidate_remote_word(home, old_owner, word, t)
            elif valid >> off & 1:
                # The L2's copy is now stale; it dies as Write waste.
                l2_on_write(home, word)
            owners[off] = core
        entry.valid = valid | mask
        entry.reg = reg | mask
        entry.word_dirty &= ~mask
        if self.slice_blooms and not entry.in_bloom:
            self.slice_blooms[home].insert(line_addr)
            entry.in_bloom = True
        self._send_resp_ctl(T.ST, home, core, t, self._reg_ack, core)

    def _reg_ack(self, core: int, t: int) -> None:
        self._outstanding_regs[core] -= 1
        self._fire_retire_hooks(core, t)

    def _invalidate_remote_word(self, home: int, owner: int, word: int,
                                t: int) -> None:
        """Registration displaced an old registrant: invalidate its copy.

        Counted as store request-control traffic (it is required to
        complete the store; DeNovo's only *overhead* messages are NACKs
        and Bloom traffic, per Section 5.1).
        """
        self._send_req_ctl(T.ST, home, owner, t,
                           self._invalidate_word_at_owner, owner, word)

    def _invalidate_word_at_owner(self, owner: int, word: int,
                                  _tt: int) -> None:
        ctx = self.ctx
        line = self.l1[owner].lookup(line_of(word), touch=False)
        if line is None:
            return
        bit = 1 << (word & 15)
        if line.valid & bit:
            ctx.l1_prof.on_invalidate(owner, word)
            for inst in line.take_insts(bit):
                ctx.mem_prof.drop_copy(inst, invalidated=True)
            keep = ~bit
            line.valid &= keep
            line.reg &= keep
            line.word_dirty &= keep

    def _fetch_line_for_write(self, entry: DenovoL2Line, home: int,
                              t: int) -> None:
        """Baseline L2 fetch-on-write: pull the whole line from memory."""
        mc = self.ctx.mc_tile(entry.line_addr)
        self._send_req_ctl(T.ST, home, mc, t,
                           self._fetch_fw_at_mc, entry, home, mc)

    def _fetch_fw_at_mc(self, entry: DenovoL2Line, home: int, mc: int,
                        _arrive: int) -> None:
        line_addr = entry.line_addr
        self.ctx.dram_for(line_addr).read(
            line_addr, self._fetch_fw_dram_done, entry, home, mc)

    def _fetch_fw_dram_done(self, entry: DenovoL2Line, home: int, mc: int,
                            tt: int) -> None:
        ctx = self.ctx
        words = words_of_line(entry.line_addr)
        l2_entries = _arrivals(ctx.l2_prof, home, entry, words)
        held = entry.valid
        if held:
            fetch = ctx.mem_prof.fetch
            insts = [fetch(word, held >> (word & 15) & 1 == 1)
                     for word in words]
        else:
            insts = ctx.mem_prof.fetch_line(words[0])
        self._send_data(T.ST, T.DEST_L2, mc, home, tt, l2_entries,
                        self._fetch_fw_at_l2, entry, insts)

    def _fetch_fw_at_l2(self, entry: DenovoL2Line, insts, _t3: int) -> None:
        _install(entry, words_of_line(entry.line_addr), insts,
                 self.ctx.mem_prof)

    # ------------------------------------------------------------------
    # Load path: L2 handling
    # ------------------------------------------------------------------

    def _l2_gets(self, req: LoadRequest, arrive: int) -> None:
        ctx = self.ctx
        addr = req.addr
        line_addr = addr >> 4
        off = addr & 15
        home = self._home_tile(line_addr)
        if req.t_home_arrive is None:
            req.t_home_arrive = arrive
        t = ctx.l2_service_time(home, arrive)
        entry = self.l2[home].lookup(line_addr)

        if entry is not None:
            bit = 1 << off
            if entry.reg & bit:
                if entry.owners[off] != req.core:
                    self._forward_to_owner(req, entry, home, t)
                    return
                # The requestor itself was the registrant but lost the
                # line; heal: the writeback (if any) made the L2 copy
                # dirty-valid.
                entry.reg ^= bit
                if not entry.word_dirty & bit:
                    entry.valid ^= bit
            if entry.valid & ~entry.reg & bit:
                self._respond_from_l2(req, entry, home, t)
                return
        self._load_miss_to_memory(req, entry, home, t)

    def _respond_from_l2(self, req: LoadRequest, entry: DenovoL2Line,
                         home: int, t: int) -> None:
        """L2 hit: respond with the line's valid words (or Flex subset)."""
        ctx = self.ctx
        line_addr, words = self._gather_l2_words(req.addr, home)
        core = req.core
        l2 = self.l2[home]
        if line_addr >= 0:
            # Words of the requested line, so ``entry`` is their source.
            if len(words) == WORDS_PER_LINE:
                ctx.l2_prof.on_use_line(home, words[0])
            else:
                ctx.l2_prof.on_use_words(home, words)
            l1_entries, insts = self._line_sources(core, l2, entry,
                                                   line_addr, words)
        else:
            flags, insts = self._word_sources(self.l1[core], l2, words)
            ctx.l2_prof.on_use_words(home, words)
            l1_entries = ctx.l1_prof.arrivals_words(core, words, flags)
        req.served_by = SERVED_L2
        req.t_fill_send = t
        self._send_data(
            T.LD, T.DEST_L1, home, core, t, l1_entries,
            self._l1_load_fill, req, line_addr, words, insts, True)

    def _line_sources(self, core: int, src_cache, src_line: CacheLine,
                      line_addr: int, words: List[int]):
        """One-line path of a cache-sourced response.

        Profiles the words' arrival at ``core``'s L1 and returns their
        handles with the memory instances of ``src_line``'s copies.  One
        lookup per cache; the probes still count one per word.
        """
        l1 = self.l1[core]
        n = len(words)
        l1_line = l1.lookup(line_addr, False)
        l1.stat_probes += n - 1
        src_cache.stat_probes += n
        held = src_line.inst_mask
        mem_inst = src_line.mem_inst
        if (n == WORDS_PER_LINE and held == FULL_MASK
                and mem_inst.__class__ is range):
            insts = mem_inst    # whole line, one fill: share the range
        else:
            insts = [mem_inst[w & 15] if held >> (w & 15) & 1 else None
                     for w in words]
        return _arrivals(self.ctx.l1_prof, core, l1_line, words), insts

    @staticmethod
    def _word_sources(l1, src_cache, words: List[int]):
        """Word path of a cache-sourced response.

        Returns whether the requestor's ``l1`` already holds each word
        and the memory instance of each word's copy in ``src_cache``.
        Each cache's line is resolved once per run of same-line words
        and the skipped probes are charged, so the counters match one
        lookup per word.
        """
        flags = []
        insts = []
        l1_addr = src_addr = -1
        l1_line = src_line = None
        l1_probes = src_probes = 0
        for word in words:
            wline = word >> 4
            if wline == l1_addr:
                l1_probes += 1
            else:
                l1_line = l1.lookup(wline, False)
                l1_addr = wline
            flags.append(l1_line is not None
                         and l1_line.valid >> (word & 15) & 1 == 1)
            if wline == src_addr:
                src_probes += 1
            else:
                src_line = src_cache.lookup(wline, False)
                src_addr = wline
            insts.append(src_line.inst(word & 15)
                         if src_line is not None else None)
        l1.stat_probes += l1_probes
        src_cache.stat_probes += src_probes
        return flags, insts

    def _gather_l2_words(self, addr: int,
                         home: int) -> Tuple[int, List[int]]:
        """Words an L2 response carries, and their line.

        Without a Flex region the words are the valid words of
        ``addr``'s line, in offset order.  A Flex subset reports its
        line only when it is that whole line in offset order; any other
        subset reports -1 and takes the word path.
        """
        l2 = self.l2[home]
        region = self._flex_region(addr, self._flex_l1, "flex_l1")
        if region is None:
            # ``addr``'s own line (whose slice is ``home``): one probe
            # per candidate word.
            line_addr = addr >> 4
            lentry = l2.lookup(line_addr, False)
            l2.stat_probes += WORDS_PER_LINE - 1
            if lentry is None:
                return -1, []
            base = line_addr << 4
            return line_addr, [base + off for off in
                               mask_offsets(lentry.valid & ~lentry.reg)]
        home_tile = self._home_tile
        out = []
        last_addr = -1
        lentry = None
        probes = 0
        for word in self._flex_words(region, addr):
            wline = word >> 4
            if home_tile(wline) != home:
                continue   # the slice can only gather its own lines
            if wline == last_addr:
                probes += 1
            else:
                lentry = l2.lookup(wline, False)
                last_addr = wline
            if lentry is None:
                continue
            if (lentry.valid & ~lentry.reg) >> (word & 15) & 1:
                out.append(word)
        l2.stat_probes += probes
        return _whole_line(out), out

    def _forward_to_owner(self, req: LoadRequest, entry: DenovoL2Line,
                          home: int, t: int) -> None:
        """Requested word registered to another L1: forward the request."""
        owner = entry.owners[offset_of(req.addr)]
        self._send_req_ctl(T.LD, home, owner, t,
                           self._fwd_at_owner, req, owner, home)

    def _fwd_at_owner(self, req: LoadRequest, owner: int, home: int,
                      tt: int) -> None:
        ctx = self.ctx
        line_addr = line_of(req.addr)
        oline = self.l1[owner].lookup(line_addr, touch=False)
        off = offset_of(req.addr)
        if oline is None or not oline.valid >> off & 1:
            # Stale registration: the owner's eviction writeback and a
            # late in-flight registration raced at the home.  Heal the
            # L2 state (the writeback data is the latest value) so the
            # retry is served from the L2 instead of looping forever.
            home_entry = self.l2[self._home_tile(line_addr)].lookup(
                line_addr, touch=False)
            if (home_entry is not None
                    and home_entry.reg >> off & 1
                    and home_entry.owners[off] == owner):
                home_entry.reg ^= 1 << off
                home_entry.word_dirty |= 1 << off
            self.stat_nacks += 1
            self._send_overhead(
                T.OVH_NACK, owner, req.core, tt,
                self._retry_gets, req)
            return
        line_addr, words = self._gather_owner_words(owner, req.addr)
        core = req.core
        l1_owner = self.l1[owner]
        if line_addr >= 0:
            # Words of the requested line: their source is ``oline``.
            l1_entries, insts = self._line_sources(core, l1_owner, oline,
                                                   line_addr, words)
        else:
            flags, insts = self._word_sources(self.l1[core], l1_owner,
                                              words)
            l1_entries = ctx.l1_prof.arrivals_words(core, words, flags)
        req.served_by = SERVED_REMOTE_L1
        req.t_fill_send = tt
        self._send_data(
            T.LD, T.DEST_L1, owner, core, tt, l1_entries,
            self._l1_load_fill, req, line_addr, words, insts, True)

    def _gather_owner_words(self, owner: int,
                            addr: int) -> Tuple[int, List[int]]:
        """Words a cache-to-cache response carries from the owner L1,
        with their line as in :meth:`_gather_l2_words`."""
        l1_owner = self.l1[owner]
        region = self._flex_region(addr, self._flex_l1, "flex_l1")
        if region is None:
            line_addr = addr >> 4
            line = l1_owner.lookup(line_addr, False)
            l1_owner.stat_probes += WORDS_PER_LINE - 1
            if line is None:
                return -1, []
            base = line_addr << 4
            return line_addr, [base + off
                               for off in mask_offsets(line.valid)]
        out = []
        last_addr = -1
        line = None
        probes = 0
        for word in self._flex_words(region, addr):
            wline = word >> 4
            if wline == last_addr:
                probes += 1
            else:
                line = l1_owner.lookup(wline, False)
                last_addr = wline
            if line is None:
                continue
            if line.valid >> (word & 15) & 1:
                out.append(word)
        l1_owner.stat_probes += probes
        return _whole_line(out), out

    def _retry_gets(self, req: LoadRequest, at: int) -> None:
        req.retries += 1
        line_addr = line_of(req.addr)
        self._send_req_ctl(
            T.LD, req.core, self._home_tile(line_addr),
            at + NACK_RETRY_DELAY, self._l2_gets, req)

    # ------------------------------------------------------------------
    # Load path: memory
    # ------------------------------------------------------------------

    def _load_miss_to_memory(self, req: LoadRequest,
                             entry: Optional[DenovoL2Line], home: int,
                             t: int) -> None:
        ctx = self.ctx
        addr = req.addr
        line_addr = line_of(addr)
        bypassed = self._bypasses(addr)
        req.went_to_memory = True
        req.t_home_depart = t
        req.served_by = SERVED_MEMORY
        mc = ctx.mc_tile(line_addr)
        dirty_mask = entry.dirty_mask() if entry is not None else 0
        if not bypassed and entry is None:
            entry = self._reserve_l2(home, line_addr)
        fill_l2 = not bypassed

        self._send_req_ctl(
            T.LD, home, mc, t,
            self._mc_load, req, home, mc, dirty_mask, fill_l2)

    def _bypass_request_path(self, req: LoadRequest, at: int) -> None:
        """L2 Request Bypass: consult the L1 Bloom shadow, maybe go direct."""
        ctx = self.ctx
        core = req.core
        line_addr = line_of(req.addr)
        home = self._home_tile(line_addr)
        shadow = self.l1_blooms[core]
        self.stat_bypass_queries += 1
        if not shadow.has_copy(home, line_addr):
            self._fetch_bloom_copy(req, core, home, line_addr, at)
            return
        if shadow.may_contain(home, line_addr):
            # Possibly dirty on-chip: take the normal path through the L2.
            self._send_req_ctl(T.LD, core, home, at,
                               self._l2_gets, req)
            return
        # Provably clean: go straight to the memory controller.
        self.stat_direct_requests += 1
        req.went_to_memory = True
        req.served_by = SERVED_MEMORY
        mc = ctx.mc_tile(line_addr)
        self._send_req_ctl(
            T.LD, core, mc, at,
            self._mc_load, req, home, mc, 0, False)

    def _fetch_bloom_copy(self, req: LoadRequest, core: int, home: int,
                          line_addr: int, at: int) -> None:
        """Copy the needed L2 Bloom filter into the L1 shadow (overhead)."""
        ctx = self.ctx
        self.stat_bloom_copies += 1
        filter_index = self.slice_blooms[home].filter_index(line_addr)
        # The 1-bit projection of one filter: entries/8 bytes of payload.
        payload_bytes = ctx.config.bloom_entries // 8
        copy_flits = 1 + -(-payload_bytes // LINK_BYTES)
        self._send_overhead(T.OVH_BLOOM, core, home, at,
                            self._bloom_at_l2, req, core, home,
                            filter_index, copy_flits)

    def _bloom_at_l2(self, req: LoadRequest, core: int, home: int,
                     filter_index: int, copy_flits: int, t: int) -> None:
        self._send_overhead(
            T.OVH_BLOOM, home, core, t,
            self._bloom_install, req, core, home, filter_index,
            flits=copy_flits)

    def _bloom_install(self, req: LoadRequest, core: int, home: int,
                       filter_index: int, tt: int) -> None:
        bits = self.slice_blooms[home].bit_projection(filter_index)
        self.l1_blooms[core].install(home, filter_index, bits)
        self._bypass_request_path(req, tt)

    def _mc_load(self, req: LoadRequest, home: int, mc: int,
                 dirty_mask: int, fill_l2: bool, arrive: int) -> None:
        """Memory controller handling of a load: fetch, filter, respond.

        ``dirty_mask`` holds the words of the requested line that are
        dirty on chip, which the controller must not return."""
        ctx = self.ctx
        req.t_arrive_mc = arrive
        addr = req.addr
        line_addr = line_of(addr)
        dram = ctx.dram_for(line_addr)

        # Which lines to fetch and which words to send.
        flex_region = self._flex_region(addr, self._flex_l2, "flex_l2")
        if flex_region is not None:
            wanted = self._flex_words(flex_region, addr)
            lines = []
            for word in wanted:
                wline = line_of(word)
                if wline not in lines and dram.same_row(line_addr, wline):
                    lines.append(wline)
            if line_addr not in lines:
                lines.insert(0, line_addr)
            wanted_set = set(w for w in wanted if line_of(w) in lines)
            # The critical line is open at the controller anyway: harvest
            # the communication-region fields of every element it holds
            # (Flex responses may combine words of different elements;
            # at the L1 some arrive already-present -> Fetch waste).
            wanted_set.update(self._region_fields_on_line(flex_region,
                                                          line_addr))
        else:
            lines = [line_addr]
            wanted_set = None    # the whole line

        # One response message per fetched line, sent as soon as that
        # line's read completes (the controller streams; waiting for the
        # whole multi-line Flex gather would penalize the critical load).
        # The critical line's response carries the requested word and
        # completes the load; prefetch-line responses just install.
        for fetched_line in lines:
            dram.read(fetched_line, self._mc_respond_line, req, home, mc,
                      fill_l2, wanted_set,
                      dirty_mask if fetched_line == line_addr else 0,
                      line_addr, fetched_line)

    def _mc_respond_line(self, req: LoadRequest, home: int, mc: int,
                         fill_l2: bool, wanted_set: Optional[Set[int]],
                         masked: int, line_addr: int,
                         fetched_line: int, t: int) -> None:
        """One fetched line's response; ``masked`` holds its words that
        are dirty on chip."""
        words = words_of_line(fetched_line)
        if wanted_set is None:
            send_words = [word for word in words
                          if not masked >> (word & 15) & 1]
        else:
            send_words = []
            fetch_excess = self.ctx.mem_prof.fetch_excess
            for word in words:
                if masked >> (word & 15) & 1:
                    continue
                if word in wanted_set:
                    send_words.append(word)
                else:
                    # Read out of DRAM, dropped at the controller.
                    fetch_excess(word)
        completes = fetched_line == line_addr
        if completes:
            req.t_leave_mc = t
        self._mc_respond(req, home, mc, send_words, fill_l2, t,
                         completes=completes)

    def _bypasses(self, addr: int) -> bool:
        """Whether a load of ``addr`` bypasses the L2.  Witnesses
        ``bypass_l2_response``, which acts at an address in a
        ``bypass_l2`` region."""
        if self._bypass_response or "bypass_l2_response" not in self.acted:
            if self.ctx.regions.should_bypass(addr):
                self.acted.add("bypass_l2_response")
                return self._bypass_response
        return False

    def _flex_region(self, addr: int, on: bool, flag: str):
        """``addr``'s Flex region when the rung's ``flag`` is ``on``,
        else None.  Witnesses ``flag``, which acts at an address in a
        region with a Flex pattern."""
        if on or flag not in self.acted:
            region = self.ctx.regions.flex_region_for(addr)
            if region is not None:
                self.acted.add(flag)
                return region if on else None
        return None

    def _flex_words(self, region, addr: int) -> List[int]:
        """The Flex region's field words around ``addr``, requested word
        first when it is not itself a field."""
        words = region.flex_words(addr, MAX_MESSAGE_WORDS)
        if addr not in words:
            words = [addr] + words[:MAX_MESSAGE_WORDS - 1]
        return words

    @staticmethod
    def _region_fields_on_line(region, line_addr: int) -> List[int]:
        """Communication-region field words falling on ``line_addr``."""
        out = []
        flex = region.flex
        for word in words_of_line(line_addr):
            if not region.contains(word):
                continue
            if (word - region.base_word) % flex.stride_words in \
                    flex.field_offsets:
                out.append(word)
        return out

    def _mc_respond(self, req: LoadRequest, home: int, mc: int,
                    words: List[int], fill_l2: bool, t: int,
                    completes: bool = True) -> None:
        ctx = self.ctx
        if not words:
            if completes:
                # Everything was masked (dirty on-chip): retry via L2.
                self._retry_gets(req, t)
            return
        # A memory response carries words of one fetched line, in
        # offset order.
        line_addr = words[0] >> 4
        l2_cache = self.l2[self._home_tile(line_addr)]
        entry = l2_cache.lookup(line_addr, False)
        l2_cache.stat_probes += len(words) - 1
        fetch = ctx.mem_prof.fetch
        held = entry.valid if entry is not None else 0
        if held:
            insts = [fetch(word, held >> (word & 15) & 1 == 1)
                     for word in words]
        elif len(words) == WORDS_PER_LINE:
            insts = ctx.mem_prof.fetch_line(words[0])
        else:
            insts = [fetch(word, False) for word in words]

        if not fill_l2:
            self._send_l1_leg(req, line_addr, words, insts, completes, mc,
                              t)
            return
        self.acted.add("mem_to_l1")
        if self._mem_to_l1:
            # Parallel transfer to the L1 and the L2.
            self._send_l1_leg(req, line_addr, words, insts, completes, mc,
                              t)
            self._send_l2_leg(req, line_addr, words, insts, home, mc,
                              completes, False, t)
        else:
            # Baseline: memory -> L2 -> L1.
            self._send_l2_leg(req, line_addr, words, insts, home, mc,
                              completes, True, t)

    def _send_l1_leg(self, req: LoadRequest, line_addr: int,
                     words: List[int], insts, completes: bool, src: int,
                     at: int) -> None:
        """The L1 leg of a memory response (registers the inflight fill)."""
        if completes:
            req.t_fill_send = at
        core = req.core
        l1 = self.l1[core]
        line = l1.lookup(line_addr, False)
        l1.stat_probes += len(words) - 1
        l1_entries = _arrivals(self.ctx.l1_prof, core, line, words)
        self._inflight_fills[core].setdefault(line_addr, [])
        self._send_data(T.LD, T.DEST_L1, src, core, at, l1_entries,
                        self._on_l1_fill, req, line_addr, words, insts,
                        completes)

    def _on_l1_fill(self, req: LoadRequest, line_addr: int,
                    words: List[int], insts, completes: bool,
                    tt: int) -> None:
        self._l1_load_fill(req, line_addr, words, insts, completes, tt)
        waiters = self._inflight_fills[req.core].pop(line_addr, ())
        if waiters:
            queue = self._queue
            now = queue.now
            when = tt if tt >= now else now
            for waiter in waiters:
                queue.schedule_call(when, waiter, tt)

    def _send_l2_leg(self, req: LoadRequest, line_addr: int,
                     words: List[int], insts, home: int, mc: int,
                     completes: bool, l1_after: bool, at: int) -> None:
        """The L2 leg of a memory response (baseline chains the L1 leg).

        The words are profiled and installed at their own line's slice,
        which differs from ``home`` for Flex prefetch lines.
        """
        line_home = self._home_tile(line_addr)
        l2_cache = self.l2[line_home]
        entry = l2_cache.lookup(line_addr, False)
        l2_cache.stat_probes += len(words) - 1
        l2_entries = _arrivals(self.ctx.l2_prof, line_home, entry, words)
        self._send_data(T.LD, T.DEST_L2, mc, home, at, l2_entries,
                        self._on_l2_fill, req, line_addr, words, insts,
                        home, completes, l1_after)

    def _on_l2_fill(self, req: LoadRequest, line_addr: int,
                    words: List[int], insts, home: int, completes: bool,
                    l1_after: bool, tt: int) -> None:
        line_home = self._home_tile(line_addr)
        l2_cache = self.l2[line_home]
        entry = l2_cache.lookup(line_addr)
        if entry is None:
            entry = self._reserve_l2(line_home, line_addr)
        # The other words' lookups would find the same MRU line.
        l2_cache.stat_probes += len(words) - 1
        _install(entry, words, insts, self.ctx.mem_prof)
        if l1_after:
            self._send_l1_leg(req, line_addr, words, insts, completes, home,
                              tt)

    # ------------------------------------------------------------------
    # L1 fill and completion
    # ------------------------------------------------------------------

    def _l1_load_fill(self, req: LoadRequest, line_addr: int,
                      words: List[int], insts, completes: bool,
                      t: int) -> None:
        """Install delivered words into the requestor's L1; when this is
        the response carrying the requested word, finish the load.

        ``line_addr`` is the line of a one-line payload, or -1 for a
        Flex word list (which may span lines).
        """
        ctx = self.ctx
        core = req.core
        l1 = self.l1[core]
        req_line = req.addr >> 4
        if line_addr >= 0:
            line = l1.lookup(line_addr, False)
            l1.stat_probes += len(words) - 1
            if line is None:
                if line_addr == req_line:
                    line = self._allocate_l1(core, line_addr)
                else:
                    probes = l1.stat_probes
                    if self._can_reserve(core, line_addr):
                        line = self._allocate_l1(core, line_addr)
                    else:
                        # A prefetched line with no room is dropped; the
                        # word loop checks the room once per word.
                        l1.stat_probes += ((l1.stat_probes - probes)
                                           * (len(words) - 1))
            if line is not None:
                _install(line, words, insts, ctx.mem_prof)
        else:
            install = ctx.mem_prof.install_copy
            last_addr = -1
            line = None
            for word, inst in zip(words, insts):
                wline = word >> 4
                if wline == last_addr:
                    l1.stat_probes += 1
                else:
                    line = l1.lookup(wline, False)
                    last_addr = wline
                if line is None:
                    if wline == req_line:
                        line = self._allocate_l1(core, wline)
                    elif self._can_reserve(core, wline):
                        line = self._allocate_l1(core, wline)
                    else:
                        continue   # prefetched line has no room; drop it
                if not line.valid >> (word & 15) & 1:
                    _fill_word(line, word & 15, inst, install)
        if not completes:
            return
        self._protected[core].discard(req_line)
        line = l1.lookup(req_line, touch=False)
        if line is None or not line.valid >> (req.addr & 15) & 1:
            # The needed word did not arrive (e.g. masked at the memory
            # controller because it was dirty on-chip): retry through L2.
            self._retry_gets(req, t)
            return
        self._profile_load_hit(core, line, req.addr)
        req.on_done(t + 1, req)

    # ------------------------------------------------------------------
    # L2 allocation / writebacks / eviction
    # ------------------------------------------------------------------

    def _reserve_l2(self, home: int, line_addr: int) -> DenovoL2Line:
        cache = self.l2[home]
        existing = cache.lookup(line_addr)
        if existing is not None:
            return existing
        victim = cache.victim_for(line_addr)
        if victim is not None:
            cache.remove(victim.line_addr)
            self._evict_l2_line(home, victim)
        line, auto_victim = cache.allocate(line_addr)
        if auto_victim is not None:
            self._evict_l2_line(home, auto_victim)
        return line

    def _l2_accept_wb(self, core: int, line_addr: int, offsets: int,
                      t: int) -> None:
        """Dirty words (mask ``offsets``) from an L1 writeback arrive at
        the home slice."""
        ctx = self.ctx
        home = self._home_tile(line_addr)
        entry = self.l2[home].lookup(line_addr)
        if entry is None:
            entry = self._reserve_l2(home, line_addr)
            self.acted.add("l2_write_validate")
            if self._l2_fetch_on_write:
                self._fetch_line_for_write(entry, home, t)
        base = base_word(line_addr)
        # A clean Valid L2 copy the writeback overwrites dies as Write.
        overwritten = offsets & entry.valid & ~entry.reg & ~entry.word_dirty
        l2_on_write = ctx.l2_prof.on_write
        for off in mask_offsets(overwritten):
            l2_on_write(home, base + off)
        entry.valid |= offsets
        entry.reg &= ~offsets
        entry.word_dirty |= offsets
        mem_drop = ctx.mem_prof.drop_copy
        for inst in entry.take_insts(offsets):
            mem_drop(inst, invalidated=False)
        if self.slice_blooms and not entry.in_bloom:
            self.slice_blooms[home].insert(line_addr)
            entry.in_bloom = True

    def _evict_l2_line(self, home: int, entry: DenovoL2Line) -> None:
        """Evict an L2 line: recall registered words, write dirty to DRAM."""
        ctx = self.ctx
        at = ctx.queue.now
        line_addr = entry.line_addr
        base = base_word(line_addr)
        # Recall registered words from their owners; the owners write the
        # dirty data straight to memory.  The recalls go out in the
        # iteration order of this set (built in offset order), which
        # link contention makes visible in the results.
        registered = mask_offsets(entry.reg)
        owner_of = entry.owners
        owners = {owner_of[off] for off in registered}
        for owner in owners:
            self._send_overhead(T.OVH_INVAL, home, owner, at)
            oline = self.l1[owner].lookup(line_addr, touch=False)
            if oline is None:
                continue
            recalled = 0
            for off in registered:
                if owner_of[off] == owner:
                    recalled |= 1 << off
            recalled &= oline.reg
            if recalled:
                mc = ctx.mc_tile(line_addr)
                n_words = recalled.bit_count()
                self._send_wb(owner, mc, at, n_words, n_words,
                              T.DEST_MEM, self._wb_to_dram, line_addr)
            held = oline.valid
            ctx.l1_prof.on_invalidate_mask(owner, base, held)
            ctx.mem_prof.drop_copies(oline.take_insts(held),
                                     invalidated=True)
            oline.valid = oline.reg = oline.word_dirty = oline.inst_mask = 0
            self.wct[owner].pop(line_addr)
        # Profile the L2 copies and write dirty words back.
        ctx.l2_prof.on_evict_line(home, base)
        ctx.mem_prof.drop_copies(entry.inst_handles(), invalidated=False)
        dirty = entry.word_dirty
        if dirty:
            mc = ctx.mc_tile(line_addr)
            # DValidateL2 rung: only the dirty words travel; baseline
            # ships the whole line and unmodified words die as Waste
            # (Figure 5.1d, Mem Waste).
            n_dirty = dirty.bit_count()
            if n_dirty < WORDS_PER_LINE:
                self.acted.add("l2_dirty_wb_only")
            self._send_wb(home, mc, at,
                          n_dirty if self._l2_dirty_wb_only
                          else WORDS_PER_LINE, n_dirty, T.DEST_MEM,
                          self._wb_to_dram, line_addr)
        if self.slice_blooms and entry.in_bloom:
            self.slice_blooms[home].remove(line_addr)
            entry.in_bloom = False

