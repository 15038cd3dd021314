"""Unit tests for the flit-hop traffic ledger's charging rules.

Each charge goes through a ``send_*`` method; a fake route fixes the
hop count, so a test states the charge it expects per link crossed.
``tests/test_send_path.py`` checks the same methods on a real mesh.
"""

import random

import pytest

from repro.coherence.denovo import MAX_MESSAGE_WORDS
from repro.common.config import SystemConfig
from repro.network import traffic as T
from repro.network.mesh import Mesh
from repro.waste.profiler import (
    C_EVICT, C_USED, C_WRITE, CacheLevelProfiler, WastePools)


def span(handles):
    """``handles``, which must be consecutive, as the ``range`` a data
    message carries."""
    first = handles[0]
    assert list(handles) == list(range(first, first + len(handles)))
    return range(first, first + len(handles))


def _sink(*_args):
    """A delivery handler that does nothing."""


class FixedRoute:
    """A fake route: every packet crosses ``hops`` links and arrives a
    cycle later; ``flits`` lists each packet's flit count."""

    def __init__(self, hops):
        self.hops = hops
        self.flits = []

    def __call__(self, src, dst, flits, at):
        self.flits.append(flits)
        return self.hops, 1


def routed(led, hops):
    """Route ``led``'s next packets over ``hops`` links; the route."""
    led.route = route = FixedRoute(hops)
    return route


def send_data(led, major, dest, hops, handles):
    """One data message of ``handles`` over ``hops`` links; its flits."""
    route = routed(led, hops)
    led.send_data(major, dest, 0, 1, 0, handles, _sink)
    return route.flits[-1]


def send_wb(led, dest, hops, n_words, n_dirty):
    routed(led, hops)
    led.send_wb(0, 1, 0, n_words, n_dirty, dest, _sink)


class Words:
    """Cache-level handles of one level with chosen verdicts, plus a
    ledger over the run's verdict pools."""

    def __init__(self, level="L1"):
        self.pools = WastePools()
        self.prof = CacheLevelProfiler(level, self.pools)
        self._next = 0

    def ledger(self):
        return T.TrafficLedger(self.pools)

    def pending(self):
        word = self._next
        self._next += 1
        return self.prof.on_arrival(0, word, already_present=False), word

    def used(self):
        handle, word = self.pending()
        self.prof.on_use(0, word)
        return handle

    def waste(self):
        handle, word = self.pending()
        self.prof.on_evict(0, word)
        return handle


class TestControlTraffic:
    def test_request_ctl(self):
        led = T.TrafficLedger()
        routed(led, 3)
        led.send_req_ctl(T.LD, 0, 1, 0, _sink)
        route = routed(led, 2)
        led.send_req_ctl(T.LD, 0, 1, 0, _sink)
        led.finalize()
        assert led.bucket(T.LD, T.REQ_CTL) == 5
        assert route.flits == [1]

    def test_request_ctl_rejects_wb(self):
        led = T.TrafficLedger()
        routed(led, 1)
        with pytest.raises(ValueError):
            led.send_req_ctl(T.WB, 0, 1, 0, _sink)

    def test_response_ctl(self):
        led = T.TrafficLedger()
        route = routed(led, 3)
        led.send_resp_ctl(T.ST, 0, 1, 0, _sink)
        with pytest.raises(ValueError):
            led.send_resp_ctl(T.OVH, 0, 1, 0, _sink)
        led.finalize()
        assert led.bucket(T.ST, T.RESP_CTL) == 3
        assert route.flits[0] == 1

    def test_overhead_subtypes(self):
        led = T.TrafficLedger()
        routed(led, 2)
        led.send_overhead(T.OVH_UNBLOCK, 0, 1, 0)
        routed(led, 3)
        led.send_overhead(T.OVH_NACK, 0, 1, 0)
        route = routed(led, 2)
        led.send_overhead(T.OVH_BLOOM, 0, 1, 0, flits=5)
        led.finalize()
        assert route.flits == [5]
        assert led.bucket(T.OVH, T.OVH_UNBLOCK) == 2
        assert led.bucket(T.OVH, T.OVH_NACK) == 3
        assert led.bucket(T.OVH, T.OVH_BLOOM) == 10
        assert led.major_total(T.OVH) == 15

    def test_unknown_overhead_rejected(self):
        led = T.TrafficLedger()
        routed(led, 1)
        with pytest.raises(ValueError):
            led.send_overhead("mystery", 0, 1, 0)

    def test_unrouted_wb_ack_is_writeback_control(self):
        led = T.TrafficLedger()
        led.route = None   # never routed
        led.count_packet = lambda src, dst: 3
        led.send_wb_ack(0, 1)
        led.finalize()
        assert led.bucket(T.WB, T.WB_CONTROL) == 3
        assert led.total() == 3


class TestDataTraffic:
    def test_full_flit_all_used(self):
        words = Words()
        led = words.ledger()
        handles = span([words.used() for _ in range(4)])
        flits = send_data(led, T.LD, T.DEST_L1, 2, handles)
        assert flits == 1 + 1
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(2.0)
        assert led.bucket(T.LD, T.RESP_L1_WASTE) == 0
        assert led.bucket(T.LD, T.RESP_CTL) == 2   # the header flit

    def test_mixed_verdicts_split_fractionally(self):
        words = Words("L2")
        led = words.ledger()
        handles = span([words.used(), words.used(), words.waste(),
                        words.waste()])
        send_data(led, T.ST, T.DEST_L2, 4, handles)
        led.finalize()
        assert led.bucket(T.ST, T.RESP_L2_USED) == pytest.approx(2.0)
        assert led.bucket(T.ST, T.RESP_L2_WASTE) == pytest.approx(2.0)

    def test_unfilled_tail_goes_to_resp_ctl(self):
        """5 words over 2 hops: 2 data flits; 3 unfilled slots -> resp
        ctl, beside the header flit."""
        words = Words()
        led = words.ledger()
        send_data(led, T.LD, T.DEST_L1, 2,
                  span([words.used() for _ in range(5)]))
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(5 * 0.5)
        assert led.bucket(T.LD, T.RESP_CTL) == pytest.approx(2 + 3 * 0.5)

    def test_data_plus_slack_equals_flits_times_hops(self):
        words = Words()
        led = words.ledger()
        n, hops = 7, 3
        flits = send_data(led, T.LD, T.DEST_L1, hops,
                          span([words.used() for _ in range(n)]))
        assert flits == 1 + 2
        led.finalize()
        total = (led.bucket(T.LD, T.RESP_L1_USED)
                 + led.bucket(T.LD, T.RESP_CTL))
        assert total == pytest.approx(flits * hops)

    def test_empty_payload(self):
        led = T.TrafficLedger()
        assert send_data(led, T.LD, T.DEST_L1, 3, range(0)) == 1
        assert len(led._deferred) == 0
        led.finalize()
        assert led.total() == led.bucket(T.LD, T.RESP_CTL) == 3

    def test_verdict_resolved_at_finalize(self):
        """Handles classified after send still resolve correctly."""
        words = Words()
        led = words.ledger()
        pending = [words.pending() for _ in range(4)]
        send_data(led, T.LD, T.DEST_L1, 1,
                  span([handle for handle, _ in pending]))
        for _, word in pending:
            words.prof.on_use(0, word)
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(1.0)


class TestDeferredRecords:
    """Each data message is one packed int64 until finalize."""

    @pytest.mark.parametrize("code", range(4))
    def test_record_round_trips_at_its_limits(self, code):
        hops = Mesh(SystemConfig(num_tiles=64)).hops(0, 63)
        assert hops == 14
        n_words = MAX_MESSAGE_WORDS
        start = 2**32 + 5
        record = T.pack_data_record(start, n_words, hops, code)
        assert T.unpack_data_record(record) == (start, n_words, hops, code)

    def test_ledger_packs_the_message(self):
        """A start past 32 bits packs too (see the round trip above);
        the ledger takes only handles inside its destination pool."""
        pools = WastePools()
        n_words = MAX_MESSAGE_WORDS
        start = 5
        pools.l2_cat.extend(bytes(start + n_words))
        led = T.TrafficLedger(pools)
        flits = send_data(led, T.ST, T.DEST_L2, 14,
                          range(start, start + n_words))
        assert flits == 1 + n_words // 4
        assert [T.unpack_data_record(r) for r in led._deferred] == [
            (start, n_words, 14, 3)]

    def test_handles_past_the_destination_pool_rejected(self):
        """A stale range used to finalize to 4.0 flit-hops of L2 Waste."""
        with pytest.raises(ValueError, match="past the l2 pool"):
            send_data(T.TrafficLedger(), T.LD, T.DEST_L2, 4,
                      range(100, 104))

    def test_other_levels_handles_rejected(self):
        words = Words("L1")
        led = words.ledger()
        handles = span([words.used() for _ in range(4)])
        with pytest.raises(ValueError, match="past the l2 pool"):
            send_data(led, T.LD, T.DEST_L2, 1, handles)

    @pytest.mark.parametrize("handles", [[0, 1, 2, 3], (0, 1),
                                         range(0, 8, 2), range(3, 0, -1)])
    def test_non_consecutive_handles_rejected(self, handles):
        led = T.TrafficLedger()
        with pytest.raises(TypeError):
            send_data(led, T.LD, T.DEST_L1, 2, handles)

    def test_oversized_message_rejected(self):
        pools = WastePools()
        pools.l1_cat.extend(bytes(256))
        led = T.TrafficLedger(pools)
        with pytest.raises(ValueError, match="does not fit"):
            send_data(led, T.LD, T.DEST_L1, 2, range(256))

    def test_bad_major_or_destination_rejected(self):
        words = Words()
        led = words.ledger()
        handles = span([words.used() for _ in range(4)])
        with pytest.raises(ValueError, match="major"):
            send_data(led, T.WB, T.DEST_L1, 2, handles)
        with pytest.raises(ValueError, match="destination"):
            send_data(led, T.LD, T.DEST_MEM, 2, handles)

    def test_record_order_changes_no_bucket(self):
        """Integer word-hop totals equal the word-by-word float sums, in
        arrival order or any other."""
        rng = random.Random(7)
        pools = WastePools()
        for verdicts in (pools.l1_cat, pools.l2_cat):
            verdicts.extend(rng.choice((C_USED, C_WRITE, C_EVICT))
                            for _ in range(4000))
        messages = []
        next_handle = 0
        while next_handle < 3900:
            n = rng.randint(1, 16)
            messages.append((rng.choice((T.LD, T.ST)),
                             rng.choice((T.DEST_L1, T.DEST_L2)),
                             rng.randint(0, 14),
                             range(next_handle, next_handle + n)))
            next_handle += n
        want = {T.LD: dict.fromkeys(T.LDST_BUCKETS, 0.0),
                T.ST: dict.fromkeys(T.LDST_BUCKETS, 0.0)}
        for major, dest, hops, handles in messages:
            verdicts = pools.l1_cat if dest == T.DEST_L1 else pools.l2_cat
            for handle in handles:
                used = verdicts[handle] == C_USED
                key = ((T.RESP_L1_USED if used else T.RESP_L1_WASTE)
                       if dest == T.DEST_L1 else
                       (T.RESP_L2_USED if used else T.RESP_L2_WASTE))
                want[major][key] += hops / 4
        breakdowns = []
        for _ in range(3):
            led = T.TrafficLedger(pools)
            for major, dest, hops, handles in messages:
                send_data(led, major, dest, hops, handles)
            led.finalize()
            breakdowns.append(led.breakdown())
            rng.shuffle(messages)
        for bd in breakdowns:
            assert bd == breakdowns[0]
            for major in (T.LD, T.ST):
                for key in T.DATA_BUCKETS[major]:
                    assert bd[major][key] == want[major][key]


class TestWindow:
    """One ledger charges the whole run; ``mark()`` opens the window."""

    @staticmethod
    def _charge(led, handles, salt):
        """Some of every kind of charge; ``salt`` varies the amounts."""
        routed(led, 3 + salt)
        led.send_req_ctl(T.LD, 0, 1, 0, _sink)
        routed(led, 1 + salt)
        led.send_resp_ctl(T.ST, 0, 1, 0, _sink)
        led.count_packet = lambda src, dst: 2 + salt
        led.send_wb_ack(0, 1)
        routed(led, 1 + salt)
        led.send_overhead(T.OVH_INVAL, 0, 1, 0, flits=2)
        send_data(led, T.LD, T.DEST_L1, 5 + salt, handles[0])
        send_data(led, T.ST, T.DEST_L2, 2 + salt, handles[1])
        send_wb(led, T.DEST_L2, 3 + salt, 5, 2)
        send_wb(led, T.DEST_MEM, 4 + salt, 16, 9 + salt)

    def test_charges_before_the_mark_are_excluded_exactly(self):
        pools = WastePools()
        pools.l1_cat.extend([C_USED, C_EVICT] * 8)
        pools.l2_cat.extend([C_WRITE, C_USED, C_USED] * 4)
        warm = (range(0, 6), range(0, 5))
        window = (range(6, 16), range(5, 12))
        marked = T.TrafficLedger(pools)
        self._charge(marked, warm, salt=1)
        marked.mark()
        self._charge(marked, window, salt=2)
        marked.finalize()
        fresh = T.TrafficLedger(pools)
        self._charge(fresh, window, salt=2)
        fresh.finalize()
        assert marked.breakdown() == fresh.breakdown()
        assert marked.total() > 0

    def test_l2_destination_record_resolves_through_l2_pool(self):
        pools = WastePools()
        pools.l1_cat.extend([C_EVICT] * 4)
        pools.l2_cat.extend([C_USED, C_USED, C_USED, C_WRITE])
        led = T.TrafficLedger(pools)
        send_data(led, T.LD, T.DEST_L2, 4, range(4))
        send_data(led, T.LD, T.DEST_L1, 4, range(4))
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L2_USED) == 3
        assert led.bucket(T.LD, T.RESP_L2_WASTE) == 1
        assert led.bucket(T.LD, T.RESP_L1_USED) == 0
        assert led.bucket(T.LD, T.RESP_L1_WASTE) == 4


class TestWritebackTraffic:
    def test_dirty_clean_split(self):
        led = T.TrafficLedger()
        send_wb(led, T.DEST_L2, hops=2, n_words=4, n_dirty=2)
        led.finalize()
        assert led.bucket(T.WB, T.WB_L2_USED) == pytest.approx(1.0)
        assert led.bucket(T.WB, T.WB_L2_WASTE) == pytest.approx(1.0)
        assert led.bucket(T.WB, T.WB_CONTROL) == 2   # the header flit

    def test_mem_destination(self):
        led = T.TrafficLedger()
        send_wb(led, T.DEST_MEM, hops=4, n_words=16, n_dirty=16)
        led.finalize()
        assert led.bucket(T.WB, T.WB_MEM_USED) == pytest.approx(16.0)
        assert led.bucket(T.WB, T.WB_MEM_WASTE) == 0

    def test_partial_flit_slack_to_control(self):
        led = T.TrafficLedger()
        send_wb(led, T.DEST_MEM, hops=4, n_words=3, n_dirty=3)
        led.finalize()
        # The header flit, then one unfilled word slot.
        assert led.bucket(T.WB, T.WB_CONTROL) == pytest.approx(4 + 1.0)

    def test_word_hop_totals_equal_per_word_sums(self):
        rng = random.Random(3)
        led = T.TrafficLedger()
        want = dict.fromkeys(T.WB_BUCKETS, 0.0)
        for _ in range(500):
            dest = rng.choice((T.DEST_L2, T.DEST_MEM))
            hops = rng.randint(0, 14)
            flags = [rng.random() < 0.5 for _ in range(rng.randint(1, 16))]
            send_wb(led, dest, hops, len(flags), sum(flags))
            for dirty in flags:
                key = ((T.WB_L2_USED if dirty else T.WB_L2_WASTE)
                       if dest == T.DEST_L2 else
                       (T.WB_MEM_USED if dirty else T.WB_MEM_WASTE))
                want[key] += hops / 4
        led.finalize()
        for key in T.DATA_BUCKETS[T.WB]:
            assert led.bucket(T.WB, key) == want[key]

    def test_l1_destination_rejected(self):
        led = T.TrafficLedger()
        with pytest.raises(ValueError):
            send_wb(led, T.DEST_L1, 1, 1, 1)


class TestFinalization:
    def test_queries_require_finalize(self):
        led = T.TrafficLedger()
        with pytest.raises(RuntimeError):
            led.total()

    def test_totals(self):
        words = Words()
        led = words.ledger()
        routed(led, 3)
        led.send_req_ctl(T.LD, 0, 1, 0, _sink)
        # A header flit and a full data flit, 3 flit-hops each.
        send_data(led, T.LD, T.DEST_L1, 3,
                  span([words.used() for _ in range(4)]))
        routed(led, 1)
        led.send_overhead(T.OVH_ACK, 0, 1, 0)
        led.finalize()
        assert led.total() == pytest.approx(3 + 3 + 3 + 1)
        assert led.major_total(T.LD) == pytest.approx(9)

    def test_breakdown_is_copy(self):
        led = T.TrafficLedger()
        routed(led, 1)
        led.send_req_ctl(T.LD, 0, 1, 0, _sink)
        led.finalize()
        bd = led.breakdown()
        bd[T.LD][T.REQ_CTL] = 999
        assert led.bucket(T.LD, T.REQ_CTL) == 1
