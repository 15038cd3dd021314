"""Unit tests for the DDR3 timing model and FR-FCFS controller."""

import pytest

from repro.dram.model import (
    DRAM_BANKS, DRAM_RANKS, LINES_PER_ROW, T_BURST, T_CL, T_RCD, T_RP,
    DramChannel)
from repro.engine.events import EventQueue

BANKS = DRAM_BANKS * DRAM_RANKS


def make_channel():
    q = EventQueue()
    return DramChannel(q), q


class TestAddressMapping:
    def test_same_row_within_row(self):
        ch, _ = make_channel()
        assert ch.same_row(0, 1)
        assert ch.same_row(0, LINES_PER_ROW - 1)

    def test_different_rows(self):
        ch, _ = make_channel()
        assert not ch.same_row(0, LINES_PER_ROW)

    def test_rows_interleave_across_banks(self):
        ch, _ = make_channel()
        banks = {ch.bank_of(row * LINES_PER_ROW)
                 for row in range(BANKS)}
        assert len(banks) == BANKS


class TestTiming:
    def test_first_access_pays_activation(self):
        ch, q = make_channel()
        done = []
        ch.read(0, done.append)
        q.run()
        assert done[0] == T_RCD + T_CL + T_BURST

    def test_row_hit_is_faster(self):
        ch, q = make_channel()
        times = []
        ch.read(0, times.append)
        q.run()
        ch.read(1, times.append)   # same row: open-page hit
        q.run()
        first = times[0]
        second_latency = times[1] - first
        assert second_latency == T_CL + T_BURST
        assert ch.row_hits == 1 and ch.row_misses == 1

    def test_row_conflict_pays_precharge(self):
        ch, q = make_channel()
        times = []
        ch.read(0, times.append)
        q.run()
        conflict_line = LINES_PER_ROW * BANKS
        assert ch.bank_of(conflict_line) == ch.bank_of(0)
        ch.read(conflict_line, times.append)
        q.run()
        latency = times[1] - times[0]
        assert latency == (T_RP + T_RCD + T_CL
                           + T_BURST)

    def test_fr_fcfs_prefers_row_hit(self):
        """A younger row-hit request is served before an older row miss."""
        ch, q = make_channel()
        order = []
        ch.read(0, lambda t: order.append("warm"))
        q.run()
        # Enqueue a row miss (different row, same bank) then a row hit.
        same_bank_other_row = LINES_PER_ROW * BANKS
        ch.read(same_bank_other_row, lambda t: order.append("miss"))
        ch.read(1, lambda t: order.append("hit"))
        q.run()
        assert order == ["warm", "hit", "miss"]

    def test_writes_counted(self):
        ch, q = make_channel()
        ch.write(0)
        ch.write(LINES_PER_ROW)
        q.run()
        assert ch.writes == 2 and ch.reads == 0

    def test_bank_parallelism(self):
        """Requests to different banks overlap; same bank serializes."""
        ch, q = make_channel()
        same = []
        ch.read(0, same.append)
        conflict = LINES_PER_ROW * BANKS
        ch.read(conflict, same.append)
        q.run()
        serial_span = max(same)

        ch2, q2 = make_channel()
        par = []
        ch2.read(0, par.append)
        ch2.read(LINES_PER_ROW, par.append)   # different bank
        q2.run()
        parallel_span = max(par)
        assert parallel_span < serial_span

    def test_callbacks_fire_once_per_request(self):
        ch, q = make_channel()
        count = [0]
        for i in range(10):
            ch.read(i * LINES_PER_ROW, lambda t: count.__setitem__(
                0, count[0] + 1))
        q.run()
        assert count[0] == 10
        assert ch.reads == 10
