"""Mask-encoded cache lines against 16-slot list reference models.

A line's per-word metadata is bit masks (``word_dirty``, ``inst_mask``,
DeNovo's ``valid``/``reg``) and a memory-instance plane that is a shared
``range`` for one fill's consecutive handles and a private list
otherwise.  These tests drive that encoding through random sequences
and compare it, after every step, with the 16-slot lists it replaced:
first the bare instance plane of :class:`CacheLine`, then a DeNovo L1
line through the protocol's own fill, store, invalidation,
self-invalidation and eviction code, checking the memory instances'
copy counts as well.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.sa_cache import FULL_MASK, CacheLine, mask_offsets
from repro.coherence.denovo import _install
from repro.common.config import protocol
from repro.core.system import System

from tests.conftest import TINY_SYSTEM, micro_workload

MODEL_SETTINGS = settings(max_examples=100, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])

#: The line under test (words 80..95, inside the micro workload's region).
LINE = 5
BASE = LINE * 16

_offsets = st.lists(st.integers(0, 15), min_size=1, max_size=16,
                    unique=True).map(sorted)


def mask_of(flags) -> int:
    return sum(1 << off for off, flag in enumerate(flags) if flag)


# ----------------------------------------------------------------------
# The instance plane of a bare line
# ----------------------------------------------------------------------

_plane_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 15), st.integers(0, 40)),
    st.tuples(st.just("take"), st.integers(0, FULL_MASK)),
    st.tuples(st.just("line"), st.integers(0, 40)),
    st.tuples(st.just("none")),
    st.tuples(st.just("reset"))), max_size=40)


class TestInstancePlane:
    @MODEL_SETTINGS
    @given(_plane_ops)
    def test_matches_list_model(self, ops):
        line = CacheLine(LINE)
        model = [None] * 16
        for name, *args in ops:
            if name == "add":
                off, handle = args
                line.add_inst(off, handle)
                model[off] = handle
            elif name == "take":
                [mask] = args
                want = [model[off] for off in mask_offsets(mask)
                        if model[off] is not None]
                assert line.take_insts(mask) == want
                for off in mask_offsets(mask):
                    model[off] = None
            elif name == "line":
                fill = range(args[0], args[0] + 16)
                line.set_line_insts(fill)
                assert line.mem_inst is fill     # shared, not copied
                model = list(fill)
            elif name == "none":
                line.set_line_insts(None)
                model = [None] * 16
            else:
                line.reset_words()
                model = [None] * 16
            assert [line.inst(off) for off in range(16)] == model
            assert list(line.inst_handles()) == [
                h for h in model if h is not None]
            assert line.inst_mask == mask_of(h is not None for h in model)
            assert line.mem_inst is None or type(line.mem_inst) in (
                range, list)

    def test_consecutive_handles_stay_one_range(self):
        line = CacheLine(LINE)
        for off in (3, 4, 6, 9):
            line.add_inst(off, 100 + off)
        assert line.mem_inst == range(100, 116)
        assert line.take_insts(1 << 4) == [104]
        line.add_inst(4, 104)
        assert type(line.mem_inst) is range

    def test_a_second_fill_falls_back_to_a_list(self):
        line = CacheLine(LINE)
        line.add_inst(0, 10)
        line.add_inst(1, 11)
        line.add_inst(2, 50)                 # another fill's handle
        assert type(line.mem_inst) is list
        assert [line.inst(off) for off in range(4)] == [10, 11, 50, None]
        # Emptied, the line takes a range again.
        assert line.take_insts(FULL_MASK) == [10, 11, 50]
        line.add_inst(5, 70)
        assert type(line.mem_inst) is range and line.inst(5) == 70


# ----------------------------------------------------------------------
# A DeNovo L1 line through the protocol's own code
# ----------------------------------------------------------------------

INVALID, VALID, REG = 0, 1, 2


class LineModel:
    """One L1 line as the 16-slot lists the masks replaced, with the
    copy count of every memory instance."""

    def __init__(self) -> None:
        self.state = [INVALID] * 16
        self.dirty = [False] * 16
        self.inst = [None] * 16
        self.refs = {}

    def _drop(self, off: int) -> None:
        if self.inst[off] is not None:
            self.refs[self.inst[off]] -= 1
            self.inst[off] = None

    def install(self, offsets, insts) -> None:
        state = self.state
        if len(offsets) == 16 and not any(state):
            self.state = [VALID] * 16
            self.inst = list(insts)
            for handle in insts:
                if handle is not None:
                    self.refs[handle] += 1
            return
        for off, handle in zip(offsets, insts):
            if state[off] == INVALID:
                state[off] = VALID
                self.inst[off] = handle
                if handle is not None:
                    self.refs[handle] += 1

    def store(self, off: int) -> None:
        self._drop(off)
        self.state[off] = REG
        self.dirty[off] = True

    def invalidate(self, off: int) -> None:
        if self.state[off] != INVALID:
            self._drop(off)
        self.state[off] = INVALID
        self.dirty[off] = False

    def self_invalidate(self) -> None:
        for off in range(16):
            if self.state[off] == VALID:
                self._drop(off)
                self.state[off] = INVALID

    def evict(self) -> None:
        """Drop every copy; the next line starts empty."""
        for off in range(16):
            self._drop(off)
        self.state = [INVALID] * 16
        self.dirty = [False] * 16


_line_ops = st.lists(st.one_of(
    st.tuples(st.just("fill_line")),
    st.tuples(st.just("fill_words"), _offsets),
    st.tuples(st.just("fill_gapped"), _offsets),
    st.tuples(st.just("fill_cache"), _offsets,
              st.lists(st.integers(-1, 60), min_size=16, max_size=16)),
    st.tuples(st.just("fill_shared")),
    st.tuples(st.just("store"), st.integers(0, 15)),
    st.tuples(st.just("invalidate"), st.integers(0, 15)),
    st.tuples(st.just("self_invalidate")),
    st.tuples(st.just("evict"))), max_size=30)


class TestDenovoLine:
    @staticmethod
    def _check(line, model: LineModel, pools) -> None:
        assert line.valid == mask_of(s != INVALID for s in model.state)
        assert line.reg == mask_of(s == REG for s in model.state)
        assert line.reg & ~line.valid == 0
        assert line.word_dirty == mask_of(model.dirty)
        assert [line.inst(off) for off in range(16)] == model.inst
        for handle, refs in model.refs.items():
            assert pools.mem_refs[handle] == refs

    @MODEL_SETTINGS
    @given(_line_ops)
    def test_matches_list_model(self, ops):
        system = System(micro_workload({}), protocol("DeNovo"),
                        TINY_SYSTEM)
        proto = system.proto_sys
        mem_prof = proto.ctx.mem_prof
        pools = mem_prof.pools
        l1 = proto.l1[0]
        line, _ = l1.allocate(LINE)
        model = LineModel()
        last_fill = None

        def fetched(offsets):
            handles = [mem_prof.fetch(BASE + off, False) for off in offsets]
            model.refs.update(dict.fromkeys(handles, 0))
            return handles

        for name, *args in ops:
            if name == "fill_line":
                insts = last_fill = mem_prof.fetch_line(BASE)
                model.refs.update(dict.fromkeys(insts, 0))
                offsets = list(range(16))
            elif name == "fill_shared":
                if last_fill is None:
                    continue
                insts, offsets = last_fill, list(range(16))
            elif name == "fill_words":
                # One fill's consecutive handles over a run of offsets.
                first = args[0][0]
                offsets = list(range(first, first + len(args[0])))
                offsets = [off for off in offsets if off < 16]
                insts = fetched(offsets)
            elif name == "fill_gapped":
                # Consecutive handles over offsets with gaps (a Flex or
                # masked fill).
                offsets = args[0]
                insts = fetched(offsets)
            elif name == "fill_cache":
                # A cache-sourced fill: any known handle, or None.
                offsets, picks = args
                known = sorted(model.refs)
                insts = [known[pick % len(known)]
                         if known and pick >= 0 else None
                         for pick in picks[:len(offsets)]]
            if name.startswith("fill"):
                _install(line, [BASE + off for off in offsets], insts,
                         mem_prof)
                model.install(offsets, insts)
            elif name == "store":
                proto._apply_store_word(0, line, BASE + args[0])
                model.store(args[0])
            elif name == "invalidate":
                proto._invalidate_word_at_owner(0, BASE + args[0], 0)
                model.invalidate(args[0])
            elif name == "self_invalidate":
                proto.on_barrier({0})
                model.self_invalidate()
            else:
                l1.remove(LINE)
                proto._evict_l1_line(0, line)
                model.evict()
                line, _ = l1.allocate(LINE)
            self._check(line, model, pools)

    def test_gapped_fill_takes_the_list_fallback(self):
        """A fill whose consecutive handles land on offsets with gaps
        cannot be one offset-indexed range."""
        system = System(micro_workload({}), protocol("DeNovo"),
                        TINY_SYSTEM)
        proto = system.proto_sys
        mem_prof = proto.ctx.mem_prof
        line, _ = proto.l1[0].allocate(LINE)
        offsets = [0, 1, 8, 9]
        insts = [mem_prof.fetch(BASE + off, False) for off in offsets]
        _install(line, [BASE + off for off in offsets], insts, mem_prof)
        assert type(line.mem_inst) is list
        assert [line.inst(off) for off in offsets] == insts
        assert line.valid == 0b1100000011
        for handle in insts:
            assert mem_prof.pools.mem_refs[handle] == 1
