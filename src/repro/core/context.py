"""Shared simulation context handed to the coherence protocols.

``SimContext`` owns the clock, mesh, traffic ledger, waste profilers, DRAM
channels and region table.  Its message-send helpers ``send_req_ctl``,
``send_resp_ctl``, ``send_data``, ``send_wb``, ``send_overhead`` and
``send_wb_ack`` are the traffic ledger's own bound methods
(:class:`repro.network.traffic.TrafficLedger`): each routes its packet
once, charges its flit-hops by the paper's rule (Section 5.2) and queues
its delivery, so every network message is charged and timed by the same
code.

The helpers are closure-free: each takes ``handler, *args`` and
delivers ``handler(*args, arrive_time)`` — the arrival time is always
the last argument.  Callers pass bound methods plus their state instead
of allocating a lambda per message, which keeps the per-event cost flat
on the hottest loop in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.addressing import WORDS_PER_LINE, align_up_words
from repro.common.config import ProtocolConfig, SystemConfig
from repro.common.regions import RegionTable
from repro.dram.model import LINES_PER_ROW, DramChannel
from repro.engine.events import Barrier, EventQueue
from repro.network.mesh import Mesh
from repro.network.traffic import TrafficLedger
from repro.waste.profiler import (
    CacheLevelProfiler, MemoryProfiler, WastePools)


#: Fixed L2 slice lookup latency (cycles) and per-request occupancy.
L2_ACCESS_LATENCY = 8
L2_OCCUPANCY = 2
#: Memory-controller front-end latency before the DRAM queue.
MC_FRONTEND_LATENCY = 4
#: Retry backoff after a NACK (cycles).
NACK_RETRY_DELAY = 20


#: ``LoadRequest.served_by`` values: which agent supplied the fill.
SERVED_NONE = 0       # never completed normally (or L1 hit after retry)
SERVED_L2 = 1         # home L2 slice had the line/words
SERVED_REMOTE_L1 = 2  # forwarded to and answered by a remote owner L1
SERVED_MEMORY = 3     # went to a memory controller


@dataclass(slots=True)
class LoadRequest:
    """Bookkeeping for one outstanding (blocking) load miss.

    The ``t_*`` checkpoints past ``t_issue`` are purely observational:
    the coherence controllers stamp them unconditionally as the request
    moves (first home arrival, home departure toward memory, MC
    arrival/departure, fill send), and ``repro.obs.attrib`` — when
    attached — decomposes the end-to-end latency into segments from
    them.  Nothing on the timing path ever reads them.
    """

    core: int
    addr: int
    t_issue: int
    on_done: Callable[[int, "LoadRequest"], None]
    t_arrive_mc: Optional[int] = None
    t_leave_mc: Optional[int] = None
    went_to_memory: bool = False
    retries: int = 0
    t_home_arrive: Optional[int] = None
    t_home_depart: Optional[int] = None
    t_fill_send: Optional[int] = None
    served_by: int = SERVED_NONE


@dataclass(slots=True)
class StoreRequest:
    """Bookkeeping for one outstanding (non-blocking) store-path request.

    The ``t_*`` fields mirror :class:`LoadRequest`'s observational
    checkpoints for the MESI store (GETX) path; DeNovo stores are
    write-combined registrations and carry no per-request record.
    """

    core: int
    line_addr: int
    t_issue: int
    went_to_memory: bool = False
    retries: int = 0
    t_home_arrive: Optional[int] = None
    t_home_depart: Optional[int] = None
    t_arrive_mc: Optional[int] = None
    t_leave_mc: Optional[int] = None


class SimContext:
    """Everything the protocol controllers need to talk to each other."""

    def __init__(self, config: SystemConfig, proto: ProtocolConfig,
                 regions: RegionTable) -> None:
        self.config = config
        self.proto = proto
        self.regions = regions
        self.queue = queue = EventQueue()
        self.mesh = mesh = Mesh(config)
        # One ledger and one waste profiler per level count the whole
        # run over its word-instance pools; mark_window() opens the
        # measurement window at the end of warm-up.
        self.pools = pools = WastePools()
        self.ledger = ledger = TrafficLedger(pools, mesh, queue)
        self.l1_prof = CacheLevelProfiler("L1", pools)
        self.l2_prof = CacheLevelProfiler("L2", pools)
        # The regions lie densely from word 0, so the memory profiler's
        # pending index covers every word up to the last region's line.
        self.mem_prof = MemoryProfiler(pools, align_up_words(
            max((region.end_word for region in regions), default=0),
            WORDS_PER_LINE))
        # Memory-controller tiles: the four mesh corners.
        self.mc_tiles = config.mc_placement()
        self.drams: Dict[int, DramChannel] = {
            tile: DramChannel(self.queue) for tile in self.mc_tiles}
        self._l2_free: List[int] = [0] * config.num_tiles
        self.barrier: Optional[Barrier] = None   # wired by System
        # -- precomputed placement tables -------------------------------
        # home_tile is line_addr % num_tiles; mc_tile is periodic in the
        # line address with period LINES_PER_ROW * num_controllers, so
        # both collapse to one modulo plus (for mc) one table index.
        self._num_tiles = config.num_tiles
        self._mc_period = LINES_PER_ROW * len(self.mc_tiles)
        self._mc_table = [
            self.mc_tiles[(i // LINES_PER_ROW) % len(self.mc_tiles)]
            for i in range(self._mc_period)]
        self._dram_table = [self.drams[t] for t in self._mc_table]
        # -- the send path ----------------------------------------------
        # The ledger's send methods, bound once: protocol code calls
        # them under these names.
        self.send_req_ctl = ledger.send_req_ctl
        self.send_resp_ctl = ledger.send_resp_ctl
        self.send_data = ledger.send_data
        self.send_wb = ledger.send_wb
        self.send_overhead = ledger.send_overhead
        self.send_wb_ack = ledger.send_wb_ack

    def mark_window(self) -> None:
        """Open the measurement window: called once by ``System`` at the
        end of warm-up.  Cache contents and protocol state are untouched,
        and no object is replaced: the ledger and each profiler record
        where the window starts, and report the window alone (the cache
        levels count their handles from the mark on; the memory level's
        rule is stated on :class:`MemoryProfiler`).  Energy event
        counters are the same idiom, kept by ``System``.
        """
        self.ledger.mark()
        self.l1_prof.mark()
        self.l2_prof.mark()
        self.mem_prof.mark()

    # -- placement ------------------------------------------------------
    def home_tile(self, line_addr: int) -> int:
        """L2 slice owning ``line_addr`` (line-interleaved)."""
        return line_addr % self._num_tiles

    def mc_tile(self, line_addr: int) -> int:
        """Memory controller owning ``line_addr``.

        Interleaved at DRAM-row granularity so that a whole row lives
        behind one controller — the L2-Flex optimization prefetches only
        same-row lines, which must share a controller.
        """
        return self._mc_table[line_addr % self._mc_period]

    def dram_for(self, line_addr: int) -> DramChannel:
        return self._dram_table[line_addr % self._mc_period]

    # -- L2 slice serialization --------------------------------------------
    def l2_service_time(self, tile: int, arrival: int) -> int:
        """When the slice can start handling a request arriving at ``arrival``."""
        l2_free = self._l2_free
        free = l2_free[tile]
        start = arrival if arrival >= free else free
        l2_free[tile] = start + L2_OCCUPANCY
        return start + L2_ACCESS_LATENCY

    def finalize(self) -> None:
        self.l1_prof.finalize()
        self.l2_prof.finalize()
        self.mem_prof.finalize()
        self.ledger.finalize()
