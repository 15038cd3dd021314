"""2D mesh topology with XY (dimension-ordered) routing.

The paper measures traffic in *flit-hops*: every flit of a packet is charged
once per link it crosses.  With deterministic XY routing the hop count is
the Manhattan distance between the source and destination tiles, which lets
traffic accounting be exact without simulating individual routers.

Latency is modelled as ``hops * LINK_LATENCY + (flits - 1)`` (pipelined
serialization) plus optional per-link queueing captured by a busy-until
table, which adds contention back-pressure without per-flit simulation.

Topology is static, so everything derivable from the mesh width is
precomputed once per width at construction and shared across instances
(every cell of a sweep re-creates a ``Mesh``): the XY route of every
(src, dst) pair, its directed-link list (links flattened to ints:
``here * num_tiles + there``), and the hop-count table.  ``latency``
then does no per-call route building or coordinate math at all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import SystemConfig

#: Cycles per hop (paper Table 4.1).
LINK_LATENCY = 3

#: Per-width shared topology tables, built once and reused by every
#: Mesh instance of that width (route caches were previously grown
#: per-instance on demand).  width -> (routes, links, hops) where each
#: is a flat tuple indexed by ``src * num_tiles + dst``; links entries
#: are tuples of directed-link ints (``here * num_tiles + there``).
_TOPOLOGY_CACHE: Dict[int, Tuple[tuple, tuple, tuple]] = {}


def _build_topology(width: int) -> Tuple[tuple, tuple, tuple]:
    num_tiles = width * width
    routes: List[Tuple[int, ...]] = []
    links: List[Tuple[int, ...]] = []
    hops: List[int] = []
    for src in range(num_tiles):
        sx, sy = src % width, src // width
        for dst in range(num_tiles):
            dx, dy = dst % width, dst // width
            path = [src]
            x, y = sx, sy
            step = 1 if dx > x else -1
            while x != dx:
                x += step
                path.append(y * width + x)
            step = 1 if dy > y else -1
            while y != dy:
                y += step
                path.append(y * width + x)
            routes.append(tuple(path))
            links.append(tuple(here * num_tiles + there
                               for here, there in zip(path, path[1:])))
            hops.append(len(path) - 1)
    return tuple(routes), tuple(links), tuple(hops)


def _topology(width: int) -> Tuple[tuple, tuple, tuple]:
    tables = _TOPOLOGY_CACHE.get(width)
    if tables is None:
        tables = _TOPOLOGY_CACHE[width] = _build_topology(width)
    return tables


class Mesh:
    """Topology + latency model of the on-chip mesh network."""

    LOCAL_LATENCY = 1  # same-tile "network" latency

    def __init__(self, config: SystemConfig, model_contention: bool = True) -> None:
        self._width = config.mesh_width
        self._num_tiles = self._width * self._width
        self._model_contention = model_contention
        self._routes, self._links, self._hops = _topology(self._width)
        # busy-until time per directed link, indexed by the link int
        # (``here * num_tiles + there``).
        self._link_free: List[int] = [0] * (self._num_tiles * self._num_tiles)
        # Energy-model event counters (observational only).  Every flit
        # of every packet crossing a link is one flit-hop, matching the
        # ledger's charging rule, so ``stat_flit_hops`` reconciles
        # exactly with ``TrafficLedger`` totals (same-tile packets cross
        # zero links in both accountings).
        self.stat_packets = 0
        self.stat_flit_hops = 0

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles (0 if the same tile)."""
        return self._hops[src * self._num_tiles + dst]

    def route(self, src: int, dst: int) -> List[int]:
        """Tiles visited under XY routing, inclusive of both endpoints."""
        return list(self._routes[src * self._num_tiles + dst])

    def latency(self, src: int, dst: int, total_flits: int, now: int) -> int:
        """Delivery latency of a ``total_flits``-flit packet sent at ``now``.

        When contention modelling is on, each link on the route is occupied
        for ``total_flits`` cycles and a packet arriving at a busy link
        waits for it to drain.
        """
        return self.traverse(src, dst, total_flits, now)[1]

    def traverse(self, src: int, dst: int, total_flits: int,
                 now: int) -> Tuple[int, int]:
        """``(hops, latency)`` of one packet — one call on the send path.

        Every sender needs the hop count (traffic accounting) *and* the
        delivery latency; fusing them saves a table access and a call
        per message on the hottest layer of the simulator.
        """
        if total_flits <= 0:
            raise ValueError("a packet has at least one flit")
        self.stat_packets += 1
        if src == dst:
            return 0, self.LOCAL_LATENCY
        links = self._links[src * self._num_tiles + dst]
        hops = len(links)
        self.stat_flit_hops += total_flits * hops
        if not self._model_contention:
            return hops, hops * LINK_LATENCY + total_flits - 1
        time = now
        link_free = self._link_free
        for link in links:
            free_at = link_free[link]
            start = time if time >= free_at else free_at
            link_free[link] = start + total_flits
            time = start + LINK_LATENCY
        # pipelined serialization: trailing flits follow the header.
        time += total_flits - 1
        return hops, time - now

    def count_packet(self, src: int, dst: int, total_flits: int = 1) -> int:
        """Count a packet whose delivery is not latency-simulated.

        Fire-and-forget messages (e.g. MESI's writeback ack) are charged
        to the traffic ledger but never pass through :meth:`traverse`;
        this keeps the energy-model flit-hop counter reconciled with the
        ledger.  Returns the packet's hop count.
        """
        hops = self._hops[src * self._num_tiles + dst]
        self.stat_packets += 1
        self.stat_flit_hops += total_flits * hops
        return hops
