"""Unit tests for the flit-hop traffic ledger."""

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
        led.add_request_ctl(T.LD, hops=3)
        led.add_request_ctl(T.LD, hops=2)
        led.finalize()
        assert led.bucket(T.LD, T.REQ_CTL) == 5

    def test_request_ctl_rejects_wb(self):
        led = T.TrafficLedger()
        with pytest.raises(ValueError):
            led.add_request_ctl(T.WB, hops=1)

    def test_overhead_subtypes(self):
        led = T.TrafficLedger()
        led.add_overhead(T.OVH_UNBLOCK, hops=2)
        led.add_overhead(T.OVH_NACK, hops=3)
        led.add_overhead(T.OVH_BLOOM, hops=2, flits=5)
        led.finalize()
        assert led.bucket(T.OVH, T.OVH_UNBLOCK) == 2
        assert led.bucket(T.OVH, T.OVH_NACK) == 3
        assert led.bucket(T.OVH, T.OVH_BLOOM) == 10
        assert led.major_total(T.OVH) == 15

    def test_unknown_overhead_rejected(self):
        led = T.TrafficLedger()
        with pytest.raises(ValueError):
            led.add_overhead("mystery", hops=1)


class TestDataTraffic:
    def test_full_flit_all_used(self):
        words = Words()
        led = words.ledger()
        handles = span([words.used() for _ in range(4)])
        flits = led.add_data_words(T.LD, T.DEST_L1, hops=2, handles=handles)
        assert flits == 1
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(2.0)
        assert led.bucket(T.LD, T.RESP_L1_WASTE) == 0

    def test_mixed_verdicts_split_fractionally(self):
        words = Words("L2")
        led = words.ledger()
        handles = span([words.used(), words.used(), words.waste(),
                        words.waste()])
        led.add_data_words(T.ST, T.DEST_L2, hops=4, handles=handles)
        led.finalize()
        assert led.bucket(T.ST, T.RESP_L2_USED) == pytest.approx(2.0)
        assert led.bucket(T.ST, T.RESP_L2_WASTE) == pytest.approx(2.0)

    def test_unfilled_tail_goes_to_resp_ctl(self):
        """5 words over 2 hops: 2 data flits; 3 unfilled slots -> resp ctl."""
        words = Words()
        led = words.ledger()
        led.add_data_words(T.LD, T.DEST_L1, hops=2,
                           handles=span([words.used() for _ in range(5)]))
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(5 * 0.5)
        assert led.bucket(T.LD, T.RESP_CTL) == pytest.approx(3 * 0.5)

    def test_data_plus_slack_equals_flits_times_hops(self):
        words = Words()
        led = words.ledger()
        n, hops = 7, 3
        flits = led.add_data_words(T.LD, T.DEST_L1, hops=hops,
                                   handles=span([words.used()
                                                 for _ in range(n)]))
        led.finalize()
        total = (led.bucket(T.LD, T.RESP_L1_USED)
                 + led.bucket(T.LD, T.RESP_CTL))
        assert total == pytest.approx(flits * hops)

    def test_empty_payload(self):
        led = T.TrafficLedger()
        assert led.add_data_words(T.LD, T.DEST_L1, 3, range(0)) == 0

    def test_verdict_resolved_at_finalize(self):
        """Handles classified after send still resolve correctly."""
        words = Words()
        led = words.ledger()
        pending = [words.pending() for _ in range(4)]
        led.add_data_words(T.LD, T.DEST_L1, hops=1,
                           handles=span([handle for handle, _ in pending]))
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
        flits = led.add_data_words(T.ST, T.DEST_L2, 14,
                                   range(start, start + n_words))
        assert flits == n_words // 4
        assert [T.unpack_data_record(r) for r in led._deferred] == [
            (start, n_words, 14, 3)]

    def test_handles_past_the_destination_pool_rejected(self):
        """A stale range used to finalize to 4.0 flit-hops of L2 Waste."""
        with pytest.raises(ValueError, match="past the l2 pool"):
            T.TrafficLedger().add_data_words(T.LD, T.DEST_L2, 4,
                                             range(100, 104))

    def test_other_levels_handles_rejected(self):
        words = Words("L1")
        led = words.ledger()
        handles = span([words.used() for _ in range(4)])
        with pytest.raises(ValueError, match="past the l2 pool"):
            led.add_data_words(T.LD, T.DEST_L2, 1, handles)

    @pytest.mark.parametrize("handles", [[0, 1, 2, 3], (0, 1),
                                         range(0, 8, 2), range(3, 0, -1)])
    def test_non_consecutive_handles_rejected(self, handles):
        led = T.TrafficLedger()
        with pytest.raises(TypeError):
            led.add_data_words(T.LD, T.DEST_L1, 2, handles)

    def test_oversized_message_rejected(self):
        pools = WastePools()
        pools.l1_cat.extend(bytes(256))
        led = T.TrafficLedger(pools)
        with pytest.raises(ValueError, match="does not fit"):
            led.add_data_words(T.LD, T.DEST_L1, 2, range(256))

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
                led.add_data_words(major, dest, hops, handles)
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
        led.add_request_ctl(T.LD, 3 + salt)
        led.add_response_ctl(T.ST, 0.75 * (1 + salt))
        led.add_wb_control(2 + salt)
        led.add_overhead(T.OVH_INVAL, 1 + salt, flits=2)
        led.add_data_words(T.LD, T.DEST_L1, 5 + salt, handles[0])
        led.add_data_words(T.ST, T.DEST_L2, 2 + salt, handles[1])
        led.add_wb_data_words(T.DEST_L2, 3 + salt, 5, 2)
        led.add_wb_data_words(T.DEST_MEM, 4 + salt, 16, 9 + salt)

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
        led.add_data_words(T.LD, T.DEST_L2, 4, range(4))
        led.add_data_words(T.LD, T.DEST_L1, 4, range(4))
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L2_USED) == 3
        assert led.bucket(T.LD, T.RESP_L2_WASTE) == 1
        assert led.bucket(T.LD, T.RESP_L1_USED) == 0
        assert led.bucket(T.LD, T.RESP_L1_WASTE) == 4


class TestWritebackTraffic:
    def test_dirty_clean_split(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_L2, hops=2, n_words=4, n_dirty=2)
        led.finalize()
        assert led.bucket(T.WB, T.WB_L2_USED) == pytest.approx(1.0)
        assert led.bucket(T.WB, T.WB_L2_WASTE) == pytest.approx(1.0)

    def test_mem_destination(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_MEM, hops=4, n_words=16, n_dirty=16)
        led.finalize()
        assert led.bucket(T.WB, T.WB_MEM_USED) == pytest.approx(16.0)
        assert led.bucket(T.WB, T.WB_MEM_WASTE) == 0

    def test_partial_flit_slack_to_control(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_MEM, hops=4, n_words=3, n_dirty=3)
        led.finalize()
        assert led.bucket(T.WB, T.WB_CONTROL) == pytest.approx(1.0)

    def test_word_hop_totals_equal_per_word_sums(self):
        rng = random.Random(3)
        led = T.TrafficLedger()
        want = dict.fromkeys(T.WB_BUCKETS, 0.0)
        for _ in range(500):
            dest = rng.choice((T.DEST_L2, T.DEST_MEM))
            hops = rng.randint(0, 14)
            flags = [rng.random() < 0.5 for _ in range(rng.randint(1, 16))]
            led.add_wb_data_words(dest, hops, len(flags), sum(flags))
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
            led.add_wb_data_words(T.DEST_L1, 1, 1, 1)


class TestFinalization:
    def test_queries_require_finalize(self):
        led = T.TrafficLedger()
        with pytest.raises(RuntimeError):
            led.total()

    def test_totals(self):
        words = Words()
        led = words.ledger()
        led.add_request_ctl(T.LD, 3)
        led.add_response_ctl(T.LD, 3)
        led.add_data_words(T.LD, T.DEST_L1, 3,
                           span([words.used() for _ in range(4)]))
        led.add_overhead(T.OVH_ACK, 1)
        led.finalize()
        assert led.total() == pytest.approx(3 + 3 + 3 + 1)
        assert led.major_total(T.LD) == pytest.approx(9)

    def test_breakdown_is_copy(self):
        led = T.TrafficLedger()
        led.add_request_ctl(T.LD, 1)
        led.finalize()
        bd = led.breakdown()
        bd[T.LD][T.REQ_CTL] = 999
        assert led.bucket(T.LD, T.REQ_CTL) == 1
