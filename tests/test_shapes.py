"""Machine-shape layer tests: partitioning, mesh, placement, end-to-end.

The machine shape (the tile count, which fixes the mesh and the corner
MC placement) is a sweep axis;
these tests pin the pieces every layer relies on at non-default shapes:
workload partition helpers cover their index space exactly once for any
core count, the mesh topology is self-consistent on 2x2 through 8x8,
MC placement is valid (and degenerate shapes fail loudly), and whole
simulations run end-to-end on non-default — including
non-power-of-two — machines.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.kernel import L2_ASSOC
from repro.common.config import (
    PROTOCOL_ORDER, ScaleConfig, SystemConfig, corner_tiles,
    reshape_system, scaled_system)
from repro.core.simulator import simulate
from repro.network.mesh import LINK_LATENCY, Mesh
from repro.workloads import build_workload, core_grid
from repro.workloads.base import Generator
from repro.workloads.lu import LUGenerator

CORE_COUNTS = (1, 4, 16, 64)
MESH_WIDTHS = (2, 3, 8)


# ----------------------------------------------------------------------
# Partition helpers at non-default core counts
# ----------------------------------------------------------------------

class TestPartitionHelpers:
    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    @pytest.mark.parametrize("total", (0, 1, 7, 16, 63, 64, 97, 1000))
    def test_chunk_covers_range_exactly_once(self, num_cores, total):
        gen = Generator(ScaleConfig.tiny(), num_cores=num_cores)
        seen = []
        for core in range(num_cores):
            seen.extend(gen.chunk(total, core))
        assert sorted(seen) == list(range(total))

    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    @pytest.mark.parametrize("total", (0, 1, 7, 16, 63, 64, 97, 1000))
    def test_round_robin_covers_range_exactly_once(self, num_cores, total):
        gen = Generator(ScaleConfig.tiny(), num_cores=num_cores)
        seen = []
        for core in range(num_cores):
            seen.extend(gen.round_robin(total, core))
        assert sorted(seen) == list(range(total))

    @given(num_cores=st.integers(min_value=1, max_value=64),
           total=st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_chunk_is_contiguous_and_balanced(self, num_cores, total):
        gen = Generator(ScaleConfig.tiny(), num_cores=num_cores)
        sizes = [len(gen.chunk(total, core)) for core in range(num_cores)]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            Generator(ScaleConfig.tiny(), num_cores=0)


class TestCoreGrid:
    def test_paper_machine_is_4x4(self):
        assert core_grid(16) == (4, 4)

    @pytest.mark.parametrize("n,expected", [
        (1, (1, 1)), (4, (2, 2)), (8, (2, 4)), (6, (2, 3)), (64, (8, 8))])
    def test_most_square_factorization(self, n, expected):
        assert core_grid(n) == expected

    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    def test_lu_owner_uses_every_core(self, num_cores):
        gen = LUGenerator(ScaleConfig.tiny(), num_cores=num_cores)
        owners = {gen.owner(bi, bj)
                  for bi in range(8) for bj in range(8)}
        assert owners == set(range(num_cores))

    def test_lu_owner_matches_paper_scatter_at_16_cores(self):
        gen = LUGenerator(ScaleConfig.tiny(), num_cores=16)
        for bi in range(6):
            for bj in range(6):
                assert gen.owner(bi, bj) == (bi % 4) * 4 + (bj % 4)


# ----------------------------------------------------------------------
# Mesh topology at non-default shapes
# ----------------------------------------------------------------------

def mesh_of(width: int, contention=False) -> Mesh:
    return Mesh(SystemConfig(num_tiles=width * width),
                model_contention=contention)


class TestMeshShapes:
    @pytest.mark.parametrize("width", MESH_WIDTHS)
    def test_route_matches_hops_everywhere(self, width):
        m = mesh_of(width)
        tiles = range(width * width)
        for a in tiles:
            for b in tiles:
                route = m.route(a, b)
                assert route[0] == a and route[-1] == b
                assert len(route) == m.hops(a, b) + 1
                for here, there in zip(route, route[1:]):
                    hy, hx = divmod(here, width)
                    ty, tx = divmod(there, width)
                    assert abs(hx - tx) + abs(hy - ty) == 1

    @pytest.mark.parametrize("width", MESH_WIDTHS)
    def test_hops_symmetric_and_bounded(self, width):
        m = mesh_of(width)
        diameter = 2 * (width - 1)
        tiles = range(width * width)
        for a in tiles:
            for b in tiles:
                assert m.hops(a, b) == m.hops(b, a) <= diameter
        assert m.hops(0, width * width - 1) == diameter

    @pytest.mark.parametrize("width", MESH_WIDTHS)
    def test_latency_consistent_with_hops(self, width):
        m = mesh_of(width, contention=False)
        for b in range(width * width):
            expected = (Mesh.LOCAL_LATENCY if b == 0
                        else m.hops(0, b) * LINK_LATENCY + 3)
            assert m.latency(0, b, 4, now=0) == expected

    @pytest.mark.parametrize("width", MESH_WIDTHS)
    def test_contended_latency_never_beats_uncontended(self, width):
        contended = mesh_of(width, contention=True)
        floor = mesh_of(width, contention=False)
        for b in range(width * width):
            assert (contended.latency(0, b, 4, now=0)
                    >= floor.latency(0, b, 4, now=0))


# ----------------------------------------------------------------------
# MC placement and shape validation
# ----------------------------------------------------------------------

class TestMcPlacement:
    @pytest.mark.parametrize("width", (2, 3, 4, 5, 8))
    def test_placement_is_distinct_and_in_range(self, width):
        tiles = SystemConfig(num_tiles=width * width).mc_placement()
        assert len(tiles) == 4 == len(set(tiles))
        assert all(0 <= t < width * width for t in tiles)

    def test_paper_machine_placement_is_the_four_corners(self):
        assert SystemConfig().mc_placement() == corner_tiles(4) \
            == (0, 3, 12, 15)

    def test_degenerate_mesh_rejected(self):
        """corner_tiles(1) used to return duplicate tile ids silently."""
        for width in (0, 1):
            with pytest.raises(ValueError):
                corner_tiles(width)

    def test_system_config_validates_controller_count(self):
        """The controller count is fixed at the four corners, so no
        config can ask for another."""
        with pytest.raises(TypeError):
            SystemConfig(num_tiles=4, num_mem_controllers=8)
        assert len(SystemConfig(num_tiles=36).mc_placement()) == 4


class TestShapeConfig:
    @pytest.mark.parametrize("num_tiles", (4, 9, 16, 25, 36, 49, 64))
    def test_mesh_width_derived(self, num_tiles):
        cfg = SystemConfig(num_tiles=num_tiles)
        assert cfg.mesh_width ** 2 == num_tiles

    @pytest.mark.parametrize("num_tiles", (1, 2, 15, 81, 100))
    def test_out_of_range_shapes_rejected(self, num_tiles):
        with pytest.raises(ValueError):
            SystemConfig(num_tiles=num_tiles)

    def test_explicit_mismatched_width_rejected(self):
        """The width follows from the tile count; it is not a setting."""
        with pytest.raises(TypeError):
            SystemConfig(num_tiles=16, mesh_width=3)

    @pytest.mark.parametrize("num_tiles", (4, 9, 64))
    def test_reshape_preserves_total_l2(self, num_tiles):
        base = scaled_system(ScaleConfig())
        total = base.l2_slice_kb * base.num_tiles
        shaped = reshape_system(base, num_tiles)
        assert shaped.num_tiles == num_tiles
        # Exact when the total divides evenly (the power-of-two axis);
        # nearest-KB per slice otherwise, so the total drifts by at
        # most half a KB per slice (e.g. 128KB over 9 slices -> 14KB).
        shaped_total = shaped.l2_slice_kb * shaped.num_tiles
        assert 2 * abs(shaped_total - total) <= num_tiles
        assert shaped.l2_slice_lines // L2_ASSOC >= 1
        # Per-core resources are untouched.
        assert shaped.l1_kb == base.l1_kb
        assert (shaped.write_combine_entries
                == base.write_combine_entries)

    def test_reshape_to_same_shape_is_identity(self):
        base = scaled_system(ScaleConfig.tiny())
        assert reshape_system(base, base.num_tiles) is base

    def test_scaled_system_num_tiles_axis(self):
        tiny4 = scaled_system(ScaleConfig.tiny(), num_tiles=4)
        assert tiny4.num_tiles == 4 and tiny4.mesh_width == 2
        assert tiny4.mc_placement() == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# End-to-end simulations on non-default machines
# ----------------------------------------------------------------------

class TestEndToEndShapes:
    @pytest.mark.parametrize("num_tiles", (4, 9))
    @pytest.mark.parametrize("proto", ("MESI", "DBypFull"))
    def test_radix_runs_on_small_and_non_pow2_machines(self, num_tiles,
                                                       proto):
        """9 tiles exercises the non-power-of-two L2 index path."""
        scale = ScaleConfig.tiny()
        config = scaled_system(scale, num_tiles=num_tiles)
        workload = build_workload("radix", scale, num_cores=num_tiles)
        result = simulate(workload, proto, config)
        assert result.exec_cycles > 0
        assert result.traffic_total() > 0
        assert result.events > 0

    def test_core_count_must_match_tiles(self):
        scale = ScaleConfig.tiny()
        workload = build_workload("stream", scale, num_cores=4)
        with pytest.raises(ValueError, match="4 cores"):
            simulate(workload, "MESI", scaled_system(scale))

    def test_same_workload_shape_changes_results(self):
        """The shape axis is a real experiment axis: a bigger machine
        moves more flit-hops for the same (tiny) input."""
        scale = ScaleConfig.tiny()
        results = {}
        for tiles in (4, 16):
            workload = build_workload("stream", scale, num_cores=tiles)
            results[tiles] = simulate(
                workload, "MESI", scaled_system(scale, num_tiles=tiles))
        assert (results[16].traffic_total()
                != results[4].traffic_total())

    def test_shape_sweep_through_runner_is_deterministic(self, tmp_path):
        """sweep_shapes returns every (shape, workload, protocol) cell
        and reruns bit-identically — every rung, on the 2x2, 4x4 and
        odd-width 5x5 meshes."""
        from repro.runner import result_to_dict, sweep_shapes
        tiles_axis = (4, 16, 25)
        kwargs = dict(workloads=("stream",), protocols=PROTOCOL_ORDER,
                      scale=ScaleConfig.tiny(), use_cache=False)
        first = sweep_shapes(tiles_axis, **kwargs)
        assert sorted(first) == list(tiles_axis)
        for tiles, grid in first.items():
            assert list(grid) == ["stream"]
            assert list(grid["stream"]) == list(PROTOCOL_ORDER)
        second = sweep_shapes(tiles_axis, **kwargs)
        for tiles in tiles_axis:
            for proto in PROTOCOL_ORDER:
                assert (result_to_dict(first[tiles]["stream"][proto])
                        == result_to_dict(second[tiles]["stream"][proto]))

    def test_scaling_figure_renders_from_swept_shapes(self):
        from repro.analysis.scaling import figure_scaling
        from repro.runner import sweep_shapes
        shapes = sweep_shapes((4, 16), workloads=("stream",),
                              protocols=("MESI", "DeNovo"),
                              scale=ScaleConfig.tiny(), use_cache=False)
        fig = figure_scaling(shapes)
        text = fig.render()
        assert "Execution time" in text and "flit-hops" in text
        assert "MESI" in text and "DeNovo" in text
        assert "4t" in text and "16t" in text
        assert fig.metric("stream", "MESI", 16, "traffic") > 0

    def test_scaling_figure_rejects_ragged_shapes(self):
        from repro.analysis.scaling import figure_scaling
        scale = ScaleConfig.tiny()
        w4 = build_workload("stream", scale, num_cores=4)
        r4 = simulate(w4, "MESI", scaled_system(scale, num_tiles=4))
        shapes = {4: {"stream": {"MESI": r4}}, 16: {"stream": {}}}
        with pytest.raises(ValueError, match="missing tile counts"):
            figure_scaling(shapes)
