"""The network send path on a real mesh, against a twin mesh.

Each ``TrafficLedger.send_*`` method routes its packet once, charges it
and queues its delivery.  A twin ``Mesh`` fed the same packets (the
prior link traffic, then each message's flit count) gives the latency,
hop count and counters every message must match; the per-word charging
rule, applied word by word here, gives the buckets.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import SystemConfig
from repro.engine.events import EventQueue
from repro.network import traffic as T
from repro.network.mesh import Mesh
from repro.waste.profiler import C_EVICT, C_USED, WastePools

NUM_TILES = 16
KINDS = ("req_ctl", "resp_ctl", "data", "wb", "overhead")

tiles = st.integers(0, NUM_TILES - 1)
prior_packet = st.tuples(tiles, tiles, st.integers(1, 6), st.integers(0, 60))
message = st.fixed_dictionaries({
    "src": tiles, "dst": tiles, "at": st.integers(0, 80),
    # Per payload word: Used (data) or dirty (writeback).
    "words": st.lists(st.booleans(), max_size=20),
    "major": st.sampled_from((T.LD, T.ST)),
    "dest": st.booleans(),
    "subtype": st.sampled_from(T.OVH_BUCKETS),
})


def payload_flits(n_words):
    return 1 + -(-n_words // 4)


class Rig:
    """A ledger on a real mesh and queue, its twin mesh, and the buckets
    the per-word rule expects."""

    def __init__(self, prior):
        config = SystemConfig(num_tiles=NUM_TILES)
        self.pools = WastePools()
        self.mesh = Mesh(config)
        self.twin = Mesh(config)
        self.queue = EventQueue()
        self.ledger = T.TrafficLedger(self.pools, self.mesh, self.queue)
        for src, dst, flits, at in prior:
            self.mesh.traverse(src, dst, flits, at)
            self.twin.traverse(src, dst, flits, at)
        self.routes = 0
        real_route = self.ledger.route

        def counting_route(src, dst, flits, at):
            self.routes += 1
            return real_route(src, dst, flits, at)

        self.ledger.route = counting_route
        self.want = {T.LD: dict.fromkeys(T.LDST_BUCKETS, 0.0),
                     T.ST: dict.fromkeys(T.LDST_BUCKETS, 0.0),
                     T.WB: dict.fromkeys(T.WB_BUCKETS, 0.0),
                     T.OVH: dict.fromkeys(T.OVH_BUCKETS, 0.0)}
        self.delivered = []

    def deliver(self, tag, arrive):
        self.delivered.append((tag, arrive))

    def handles(self, verdicts, to_l2):
        pool = self.pools.l2_cat if to_l2 else self.pools.l1_cat
        start = len(pool)
        pool.extend(C_USED if used else C_EVICT for used in verdicts)
        return range(start, len(pool))

    def send(self, kind, msg, tag):
        """Send ``msg`` as a ``kind`` message; ``(arrive, twin arrive)``."""
        led, want = self.ledger, self.want
        src, dst, at, words = msg["src"], msg["dst"], msg["at"], msg["words"]
        hops = self.twin.hops(src, dst)
        major = msg["major"]
        n_words = len(words)
        slack = (-n_words) % 4 * (hops / 4)
        if kind == "req_ctl":
            flits = 1
            arrive = led.send_req_ctl(major, src, dst, at, self.deliver, tag)
            want[major][T.REQ_CTL] += hops
        elif kind == "resp_ctl":
            flits = 1
            arrive = led.send_resp_ctl(major, src, dst, at, self.deliver, tag)
            want[major][T.RESP_CTL] += hops
        elif kind == "data":
            flits = payload_flits(n_words)
            to_l2 = msg["dest"]
            handles = self.handles(words, to_l2)
            arrive = led.send_data(major, T.DEST_L2 if to_l2 else T.DEST_L1,
                                   src, dst, at, handles, self.deliver, tag)
            want[major][T.RESP_CTL] += hops + slack
            used, waste = ((T.RESP_L2_USED, T.RESP_L2_WASTE) if to_l2
                           else (T.RESP_L1_USED, T.RESP_L1_WASTE))
            for word_used in words:
                want[major][used if word_used else waste] += hops / 4
        elif kind == "wb":
            flits = payload_flits(n_words)
            to_l2 = msg["dest"]
            arrive = led.send_wb(src, dst, at, n_words, sum(words),
                                 T.DEST_L2 if to_l2 else T.DEST_MEM,
                                 self.deliver, tag)
            want[T.WB][T.WB_CONTROL] += hops + slack
            used, waste = ((T.WB_L2_USED, T.WB_L2_WASTE) if to_l2
                           else (T.WB_MEM_USED, T.WB_MEM_WASTE))
            for dirty in words:
                want[T.WB][used if dirty else waste] += hops / 4
        else:
            # An overhead packet's flits are its own (a Bloom copy has
            # several); the payload words only size it.
            flits = payload_flits(n_words)
            arrive = led.send_overhead(msg["subtype"], src, dst, at,
                                       self.deliver, tag, flits=flits)
            want[T.OVH][msg["subtype"]] += hops * flits
        return arrive, at + self.twin.latency(src, dst, flits, at)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prior=st.lists(prior_packet, max_size=8),
       messages=st.lists(message, min_size=1, max_size=8))
def test_send_routes_charges_and_queues_once(kind, prior, messages):
    rig = Rig(prior)
    arrivals = []
    for tag, msg in enumerate(messages):
        arrive, twin_arrive = rig.send(kind, msg, tag)
        assert arrive == twin_arrive
        arrivals.append((tag, arrive))
        assert rig.routes == tag + 1
    assert rig.mesh.stat_flit_hops == rig.twin.stat_flit_hops
    assert rig.mesh.stat_packets == rig.twin.stat_packets

    # Each delivery fires once, at its arrival, with the arrival last.
    assert rig.queue.pending == len(messages)
    rig.queue.run()
    assert sorted(rig.delivered) == arrivals
    assert rig.queue.events_run == len(messages)

    rig.ledger.finalize()
    assert rig.ledger.breakdown() == rig.want

    # An arrival before the queue's clock is refused.
    rig.queue.now = 10 ** 9
    with pytest.raises(ValueError, match="in the past"):
        rig.send(kind, messages[0], "late")


def test_unrouted_wb_ack_counts_on_the_mesh():
    rig = Rig(prior=[])
    rig.ledger.send_wb_ack(0, 15)
    assert rig.routes == 0
    assert rig.mesh.stat_packets == 1
    assert rig.mesh.stat_flit_hops == rig.twin.hops(0, 15) == 6
    assert rig.queue.pending == 0
    rig.ledger.finalize()
    assert rig.ledger.bucket(T.WB, T.WB_CONTROL) == 6
