"""Unit tests for the trace representation and builder."""

import dataclasses
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import ScaleConfig
from repro.common.regions import FlexPattern, Region, RegionTable
from repro.workloads import build_workload
from repro.workloads.trace import (
    MAX_ARG, OP_BARRIER, OP_COMPUTE, OP_LOAD, OP_STORE, PackedTrace,
    RegionUpdate, TraceBuilder, Workload, pack)


def table():
    return RegionTable([Region(0, "a", 0, 1024),
                        Region(1, "b", 1024, 1024)])


class TestTraceBuilder:
    def test_ops_recorded_per_core(self):
        tb = TraceBuilder(2, table())
        tb.load(0, 5)
        tb.store(1, 10)
        tb.compute(0, 7)
        assert list(PackedTrace(tb.traces[0])) == [(OP_LOAD, 5),
                                                   (OP_COMPUTE, 7)]
        assert list(PackedTrace(tb.traces[1])) == [(OP_STORE, 10)]

    def test_zero_compute_skipped(self):
        tb = TraceBuilder(1, table())
        tb.compute(0, 0)
        assert list(PackedTrace(tb.traces[0])) == []

    def test_barrier_applied_to_all_cores(self):
        tb = TraceBuilder(3, table())
        tb.load(0, 5)
        tb.barrier()
        assert all(PackedTrace(t)[-1] == (OP_BARRIER, 0)
                   for t in tb.traces)

    def test_written_regions_tracked_per_phase(self):
        tb = TraceBuilder(2, table())
        tb.store(0, 5)       # region 0
        tb.barrier()
        tb.store(1, 1030)    # region 1
        tb.barrier()
        tb.load(0, 5)        # loads don't count
        tb.barrier()
        assert tb.phase_written_regions == [
            frozenset({0}), frozenset({1}), frozenset()]

    def test_region_updates_attached_to_barrier(self):
        tb = TraceBuilder(1, table())
        update = RegionUpdate(0, bypass_l2=True)
        tb.barrier(updates=[update])
        tb.barrier()
        assert tb.phase_region_updates == {0: [update]}

    def test_build_holds_each_trace_once(self):
        """Packing releases each core's array as soon as it is copied,
        so building peaks well under twice the finished traces."""
        build_workload("FFT", ScaleConfig.tiny())   # warm imports
        tracemalloc.start()
        try:
            w = build_workload("FFT", ScaleConfig.tiny())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        traces = sum(len(t.words.obj) for t in w.traces)
        assert peak <= 1.5 * traces

    def test_build_appends_final_barrier(self):
        tb = TraceBuilder(2, table())
        tb.load(0, 5)
        w = tb.build("test")
        assert all(t[-1] == (OP_BARRIER, 0) for t in w.traces)
        assert w.num_barriers == 1


class TestWorkload:
    def test_barrier_counts_must_match(self):
        with pytest.raises(ValueError):
            Workload(name="bad", regions=table(),
                     traces=[[(OP_BARRIER, 0)], []])

    def test_written_regions_padded(self):
        w = Workload(name="w", regions=table(),
                     traces=[[(OP_BARRIER, 0), (OP_BARRIER, 0)]],
                     phase_written_regions=[frozenset({0})])
        assert w.written_regions_at(0) == frozenset({0})
        assert w.written_regions_at(1) == frozenset()
        assert w.written_regions_at(99) == frozenset()

    def test_counts(self):
        w = Workload(name="w", regions=table(), traces=[
            [(OP_LOAD, 1), (OP_STORE, 2), (OP_COMPUTE, 5), (OP_BARRIER, 0)],
            [(OP_LOAD, 3), (OP_BARRIER, 0)],
        ])
        assert w.num_cores == 2
        assert sum(len(t) for t in w.traces) == 6
        assert sum(kind in (OP_LOAD, OP_STORE)
                   for t in w.traces for kind, _arg in t) == 3

    def test_updates_at(self):
        update = RegionUpdate(1, flex=FlexPattern(4, (0,)))
        w = Workload(name="w", regions=table(),
                     traces=[[(OP_BARRIER, 0)]],
                     phase_region_updates={0: [update]})
        assert w.updates_at(0) == [update]
        assert w.updates_at(1) == []

    def test_pickle_round_trip_and_rebuild_compare_equal(self):
        w = build_workload("radix", ScaleConfig.tiny())
        assert pickle.loads(pickle.dumps(w)) == w
        assert build_workload("radix", ScaleConfig.tiny()) == w

    def test_changed_region_annotation_compares_unequal(self):
        w = build_workload("radix", ScaleConfig.tiny())
        region = next(iter(w.regions))
        changed = w.regions.clone()
        changed.update(region.region_id, bypass_l2=not region.bypass_l2)
        assert changed != w.regions
        assert dataclasses.replace(w, regions=changed) != w
        assert dataclasses.replace(w, regions=w.regions.clone()) == w


#: One op of any kind, with an argument anywhere in the packable range.
any_op = st.tuples(st.sampled_from([OP_LOAD, OP_STORE, OP_COMPUTE,
                                    OP_BARRIER]),
                   st.one_of(st.integers(0, 2 ** 20),
                             st.integers(0, MAX_ARG)))


class TestPackedTrace:
    @given(st.lists(any_op, max_size=50))
    def test_pack_round_trips(self, ops):
        trace = pack(ops)
        assert len(trace) == len(ops)
        assert list(trace) == ops
        assert [trace[i] for i in range(-len(ops), len(ops))] == ops + ops
        assert pickle.loads(pickle.dumps(trace)) == trace

    def test_words_are_arg_shifted_over_kind(self):
        trace = pack([(OP_LOAD, 5), (OP_STORE, 5), (OP_COMPUTE, 7),
                      (OP_BARRIER, 0)])
        assert trace.words.tolist() == [20, 21, 30, 3]
        with pytest.raises(TypeError):
            trace.words[0] = 0

    def test_built_trace_stores_four_bytes_per_op(self):
        w = build_workload("radix", ScaleConfig.tiny())
        assert sum(len(t) for t in w.traces) > 0
        for trace in w.traces:
            ops = sum(1 for _op in trace)
            backing = trace.words.obj
            assert isinstance(backing, bytes)
            assert sys.getsizeof(backing) - sys.getsizeof(b"") == 4 * ops

    def test_partial_word_rejected(self):
        with pytest.raises(ValueError, match="4-byte words"):
            PackedTrace(b"\0" * 6)

    def test_largest_argument_round_trips(self):
        trace = pack([(OP_STORE, MAX_ARG), (OP_COMPUTE, 1)])
        assert list(trace) == [(OP_STORE, MAX_ARG), (OP_COMPUTE, 1)]
        assert MAX_ARG == 2 ** 30 - 1


class TestBadOpsFailAtConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ValueError,
                           match="core 0, op 0: unknown op kind 7"):
            Workload(name="bad", regions=table(),
                     traces=[[(7, 0), (OP_BARRIER, 0)]])

    def test_negative_address(self):
        with pytest.raises(ValueError, match="core 1, op 1: negative address"):
            Workload(name="bad", regions=table(),
                     traces=[[(OP_BARRIER, 0)],
                             [(OP_LOAD, 4), (OP_STORE, -3), (OP_BARRIER, 0)]])

    def test_negative_compute_count(self):
        with pytest.raises(ValueError, match="op 0: negative compute count"):
            Workload(name="bad", regions=table(),
                     traces=[[(OP_COMPUTE, -1), (OP_BARRIER, 0)]])

    def test_argument_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            pack([(OP_LOAD, MAX_ARG + 1)])

    def test_builder_negative_address(self):
        tb = TraceBuilder(2, table())
        tb.load(1, 8)
        with pytest.raises(ValueError, match="core 1, op 1: negative address"):
            tb.load(1, -8)

    @pytest.mark.parametrize("method,what", [
        ("load", "address"), ("store", "address"),
        ("compute", "compute count")])
    def test_builder_argument_too_large(self, method, what):
        tb = TraceBuilder(2, table())
        tb.compute(0, 3)
        with pytest.raises(ValueError,
                           match=f"core 0, op 1: {what} {MAX_ARG + 1} "
                                 f"exceeds {MAX_ARG}"):
            getattr(tb, method)(0, MAX_ARG + 1)
        assert len(tb.traces[0]) == 1     # nothing was appended
