"""Tests for figure construction, normalization and rendering."""

import pytest

from repro.analysis.figures import (
    ALL_FIGURES, FigureTable, figure_5_1a, figure_5_1b, figure_5_1d,
    figure_5_2, figure_5_3a, table_4_1, table_4_2)
from repro.common.config import ScaleConfig, SystemConfig, scaled_system
from repro.core.simulator import simulate
from repro.workloads import build_workload

SCALE = ScaleConfig.tiny()
CFG = scaled_system(SCALE)


@pytest.fixture(scope="module")
def mini_grid():
    grid = {}
    for name in ("radix", "kD-tree"):
        w = build_workload(name, SCALE)
        grid[name] = {p: simulate(w, p, CFG)
                      for p in ("MESI", "MMemL1", "DeNovo", "DBypFull")}
    return grid


class TestNormalization:
    def test_mesi_bar_is_100(self, mini_grid):
        fig = figure_5_1a(mini_grid)
        for workload in mini_grid:
            assert fig.bar_total(workload, "MESI") == pytest.approx(100.0)

    def test_segments_sum_to_total(self, mini_grid):
        fig = figure_5_1a(mini_grid)
        for workload in mini_grid:
            for proto in mini_grid[workload]:
                segs = sum(fig.rows[workload][proto].values())
                assert segs == pytest.approx(fig.bar_total(workload, proto))

    def test_optimized_bars_below_mesi(self, mini_grid):
        fig = figure_5_1a(mini_grid)
        for workload in mini_grid:
            assert fig.bar_total(workload, "DBypFull") < 100.0

    def test_average_total(self, mini_grid):
        fig = figure_5_1a(mini_grid)
        totals = [fig.bar_total(w, "DeNovo") for w in mini_grid]
        assert fig.average_total("DeNovo") == pytest.approx(
            sum(totals) / len(totals))


class TestFigureContent:
    def test_51a_has_four_segments(self, mini_grid):
        fig = figure_5_1a(mini_grid)
        assert fig.segment_labels == ("LD", "ST", "WB", "Overhead")

    def test_51b_stack_matches_paper_legend(self, mini_grid):
        fig = figure_5_1b(mini_grid)
        assert fig.segment_labels == (
            "Req Ctl", "Resp Ctl", "Resp L1 Used", "Resp L1 Waste",
            "Resp L2 Used", "Resp L2 Waste")

    def test_51d_stack(self, mini_grid):
        fig = figure_5_1d(mini_grid)
        assert fig.segment_labels == (
            "Control", "L2 Used", "L2 Waste", "Mem Used", "Mem Waste")

    def test_52_bar_height_tracks_exec_cycles(self, mini_grid):
        fig = figure_5_2(mini_grid)
        for workload, protos in mini_grid.items():
            base = protos["MESI"].exec_cycles
            for proto, result in protos.items():
                expected = 100.0 * result.exec_cycles / base
                assert fig.bar_total(workload, proto) == pytest.approx(
                    expected, rel=1e-6)

    def test_53a_counts_words(self, mini_grid):
        fig = figure_5_3a(mini_grid)
        for workload, protos in mini_grid.items():
            base = sum(protos["MESI"].l1_waste.values())
            for proto, result in protos.items():
                expected = 100.0 * sum(result.l1_waste.values()) / base
                assert fig.bar_total(workload, proto) == pytest.approx(
                    expected)

    def test_all_figures_buildable(self, mini_grid):
        for fig_id, builder in ALL_FIGURES.items():
            fig = builder(mini_grid)
            assert isinstance(fig, FigureTable)
            assert fig.rows


class TestRendering:
    def test_render_contains_workloads_and_protocols(self, mini_grid):
        text = figure_5_1a(mini_grid).render()
        assert "radix" in text and "kD-tree" in text
        assert "MESI" in text and "DBypFull" in text
        assert "Figure 5.1a" in text

    def test_render_has_totals(self, mini_grid):
        text = figure_5_1a(mini_grid).render()
        assert "TOTAL" in text
        assert "average totals" in text


class TestConfigTables:
    def test_table_4_1_paper_values(self):
        text = table_4_1(SystemConfig())
        assert "2GHz, in-order" in text
        assert "32KB, 8-way" in text
        assert "256KB slices (4MB total), 16-way" in text
        assert "16 byte links, 3 cycle link latency" in text
        assert "FR-FCFS" in text
        assert "DDR3-1066, 8 banks, 2 ranks" in text

    def test_table_4_1_names_the_paper_beside_a_scaled_machine(self):
        assert "paper:" not in table_4_1(SystemConfig())
        text = table_4_1(scaled_system(ScaleConfig(), num_tiles=4))
        assert ("8KB, 8-way set associative, 64 byte cache lines "
                "(paper: 32KB)") in text
        assert ("32KB slices (128KB total), 16-way set associative, 64 "
                "byte cache lines (paper: 256KB slices (4MB total))") in text
        assert "2x2 mesh network, 16 byte links, 3 cycle link latency " \
               "(paper: 4x4 mesh network)" in text
        assert "0MB" not in text

    def test_table_4_2_paper_sizes(self):
        text = table_4_2(ScaleConfig.paper())
        assert "512x512 matrix" in text
        assert "4000000 keys, 1024 radix" in text
        assert "16384 bodies" in text

    def test_table_4_2_default_scale_notes_paper(self):
        text = table_4_2()
        assert "paper:" in text
