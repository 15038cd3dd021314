"""Unit tests for the flit-hop traffic ledger."""

import pytest

from repro.network import traffic as T
from repro.waste.profiler import CacheLevelProfiler, WastePools


class Words:
    """Cache-level handles with chosen verdicts, plus a ledger over
    their verdict pool."""

    def __init__(self):
        self.pools = WastePools()
        self.prof = CacheLevelProfiler("L1", self.pools)
        self._next = 0

    def ledger(self):
        return T.TrafficLedger(4, self.pools.cache_cat)

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
        handles = [words.used() for _ in range(4)]
        flits = led.add_data_words(T.LD, T.DEST_L1, hops=2, handles=handles)
        assert flits == 1
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(2.0)
        assert led.bucket(T.LD, T.RESP_L1_WASTE) == 0

    def test_mixed_verdicts_split_fractionally(self):
        words = Words()
        led = words.ledger()
        handles = [words.used(), words.used(), words.waste(), words.waste()]
        led.add_data_words(T.ST, T.DEST_L2, hops=4, handles=handles)
        led.finalize()
        assert led.bucket(T.ST, T.RESP_L2_USED) == pytest.approx(2.0)
        assert led.bucket(T.ST, T.RESP_L2_WASTE) == pytest.approx(2.0)

    def test_unfilled_tail_goes_to_resp_ctl(self):
        """5 words over 2 hops: 2 data flits; 3 unfilled slots -> resp ctl."""
        words = Words()
        led = words.ledger()
        led.add_data_words(T.LD, T.DEST_L1, hops=2,
                           handles=[words.used() for _ in range(5)])
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(5 * 0.5)
        assert led.bucket(T.LD, T.RESP_CTL) == pytest.approx(3 * 0.5)

    def test_data_plus_slack_equals_flits_times_hops(self):
        words = Words()
        led = words.ledger()
        n, hops = 7, 3
        flits = led.add_data_words(T.LD, T.DEST_L1, hops=hops,
                                   handles=[words.used()] * n)
        led.finalize()
        total = (led.bucket(T.LD, T.RESP_L1_USED)
                 + led.bucket(T.LD, T.RESP_CTL))
        assert total == pytest.approx(flits * hops)

    def test_empty_payload(self):
        led = T.TrafficLedger()
        assert led.add_data_words(T.LD, T.DEST_L1, 3, []) == 0

    def test_verdict_resolved_at_finalize(self):
        """Handles classified after send still resolve correctly."""
        words = Words()
        led = words.ledger()
        handle, word = words.pending()
        led.add_data_words(T.LD, T.DEST_L1, hops=1, handles=[handle] * 4)
        words.prof.on_use(0, word)
        led.finalize()
        assert led.bucket(T.LD, T.RESP_L1_USED) == pytest.approx(1.0)


class TestWritebackTraffic:
    def test_dirty_clean_split(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_L2, hops=2,
                              dirty_flags=[True, True, False, False])
        led.finalize()
        assert led.bucket(T.WB, T.WB_L2_USED) == pytest.approx(1.0)
        assert led.bucket(T.WB, T.WB_L2_WASTE) == pytest.approx(1.0)

    def test_mem_destination(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_MEM, hops=4, dirty_flags=[True] * 16)
        led.finalize()
        assert led.bucket(T.WB, T.WB_MEM_USED) == pytest.approx(16.0)
        assert led.bucket(T.WB, T.WB_MEM_WASTE) == 0

    def test_partial_flit_slack_to_control(self):
        led = T.TrafficLedger()
        led.add_wb_data_words(T.DEST_MEM, hops=4, dirty_flags=[True] * 3)
        led.finalize()
        assert led.bucket(T.WB, T.WB_CONTROL) == pytest.approx(1.0)

    def test_l1_destination_rejected(self):
        led = T.TrafficLedger()
        with pytest.raises(ValueError):
            led.add_wb_data_words(T.DEST_L1, 1, [True])


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
        led.add_data_words(T.LD, T.DEST_L1, 3, [words.used()] * 4)
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
