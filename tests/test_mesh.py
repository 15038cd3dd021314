"""Unit tests for the mesh topology and latency model."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import SystemConfig
from repro.network.mesh import Mesh

CFG = SystemConfig()
tiles = st.integers(min_value=0, max_value=15)


def make_mesh(contention=False) -> Mesh:
    return Mesh(CFG, model_contention=contention)


class TestTopology:
    def test_hops_corners(self):
        m = make_mesh()
        assert m.hops(0, 15) == 6
        assert m.hops(0, 3) == 3
        assert m.hops(0, 0) == 0
        assert m.hops(5, 6) == 1

    @given(tiles, tiles)
    def test_hops_symmetric(self, a, b):
        m = make_mesh()
        assert m.hops(a, b) == m.hops(b, a)

    @given(tiles, tiles, tiles)
    def test_hops_triangle_inequality(self, a, b, c):
        m = make_mesh()
        assert m.hops(a, c) <= m.hops(a, b) + m.hops(b, c)

    @given(tiles, tiles)
    def test_route_length_matches_hops(self, a, b):
        m = make_mesh()
        route = m.route(a, b)
        assert len(route) == m.hops(a, b) + 1
        assert route[0] == a and route[-1] == b

    @given(tiles, tiles)
    def test_route_steps_are_adjacent(self, a, b):
        m = make_mesh()
        route = m.route(a, b)
        for here, there in zip(route, route[1:]):
            hy, hx = divmod(here, 4)
            ty, tx = divmod(there, 4)
            assert abs(hx - tx) + abs(hy - ty) == 1


class TestLatency:
    def test_local_delivery(self):
        m = make_mesh()
        assert m.latency(5, 5, 1, now=0) == Mesh.LOCAL_LATENCY

    def test_uncontended_formula(self):
        m = make_mesh(contention=False)
        # 3 hops x 3 cycles + (5 flits - 1) serialization
        assert m.latency(0, 3, 5, now=0) == 3 * 3 + 4

    def test_single_flit(self):
        m = make_mesh(contention=False)
        assert m.latency(0, 1, 1, now=0) == 3

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            make_mesh().latency(0, 1, 0, now=0)

    def test_contention_adds_queueing(self):
        m = make_mesh(contention=True)
        first = m.latency(0, 3, 4, now=0)
        second = m.latency(0, 3, 4, now=0)   # same links, same instant
        assert second > first

    def test_contention_drains(self):
        m = make_mesh(contention=True)
        m.latency(0, 3, 4, now=0)
        later = m.latency(0, 3, 4, now=1000)
        assert later == make_mesh(contention=False).latency(0, 3, 4, 0)

    def test_disjoint_paths_do_not_interfere(self):
        m = make_mesh(contention=True)
        m.latency(0, 1, 4, now=0)
        other = m.latency(14, 15, 4, now=0)
        assert other == make_mesh(contention=False).latency(14, 15, 4, 0)

    @given(tiles, tiles, st.integers(min_value=1, max_value=5))
    def test_latency_at_least_uncontended(self, a, b, flits):
        contended = make_mesh(contention=True)
        floor = make_mesh(contention=False)
        assert (contended.latency(a, b, flits, now=0)
                >= floor.latency(a, b, flits, now=0))
