"""Tests for the experiment report generator (on a toy grid)."""

import pytest

from repro.analysis import report
from tests.test_experiments import fake_result


@pytest.fixture
def toy_grid():
    protos = ("MESI", "MMemL1", "DeNovo", "DFlexL1", "DValidateL2",
              "DMemL1", "DFlexL2", "DBypL2", "DBypFull")
    grid = {}
    for i, app in enumerate(("fluidanimate", "LU", "FFT", "radix",
                             "barnes", "kD-tree")):
        grid[app] = {}
        for j, proto in enumerate(protos):
            grid[app][proto] = fake_result(
                app, proto, traffic_scale=100 - 5 * j,
                exec_cycles=1000 - 20 * j)
    return grid


class TestReport:
    def test_headline_table_structure(self, toy_grid):
        text = report.headline_table(toy_grid)
        assert "| Metric | Paper | Measured |" in text
        assert "39.5%" in text
        assert text.count("|") > 20

    def test_per_app_table(self, toy_grid):
        text = report.per_app_table(toy_grid)
        for app in ("fluidanimate", "LU", "FFT", "radix", "barnes",
                    "kD-tree"):
            assert app in text

    def test_generate_contains_all_figures(self, toy_grid):
        text = report.generate(toy_grid)
        for fig in ("Figure 5.1a", "Figure 5.1b", "Figure 5.1c",
                    "Figure 5.1d", "Figure 5.2", "Figure 5.3a",
                    "Figure 5.3b", "Figure 5.3c", "Table 4.1",
                    "Table 4.2"):
            assert fig in text, fig

    def test_generate_renders_only_the_selected_sections(self, toy_grid):
        text = report.generate(toy_grid, figures=["5.2"], preset="22nm")
        assert "Figure 5.2" in text and "Figure 5.1a" not in text
        assert "Figure E.1 [22nm]" in text and "45nm" not in text
        assert "Core-count scaling" not in text

    def test_claims_over_unswept_rungs_read_not_swept(self, toy_grid):
        grid = {app: {p: protos[p] for p in ("MESI", "DeNovo")}
                for app, protos in toy_grid.items()}
        text = report.generate(grid)
        row = _row(text, "Avg traffic reduction, DBypFull vs MESI")
        assert row.endswith("| 39.5% | not swept | 25.0% .. 70.0% "
                            "| not swept |")
        assert "| not swept |" not in _row(
            text, "Avg traffic reduction, DeNovo vs MESI")
        assert "Per-workload DBypFull" not in text

    def test_per_app_table_lists_swept_workloads_in_paper_order(
            self, toy_grid):
        grid = {app: toy_grid[app] for app in ("radix", "LU")}
        rows = report.per_app_table(grid).splitlines()[2:]
        assert [r.split(" | ")[0] for r in rows] == [
            "| LU", "| radix", "| *paper range*"]

    def test_generate_reports_an_out_of_band_row(self, toy_grid):
        # Out-of-band rows are reported, not raised: `repro report` still
        # exits 0 on a grid that misses the paper.
        assert "| no |" in report.generate(toy_grid)


def _row(text, label):
    return next(line for line in text.splitlines()
                if line.startswith(f"| {label} "))


class TestClaims:
    def test_row_outside_its_band_prints_no(self, toy_grid):
        # The toy grid carries no overhead traffic: 0% is below the band.
        row = _row(report.headline_table(toy_grid),
                   "MESI overhead share of traffic")
        assert row.endswith("| 0.0% | 5.0% .. 30.0% | no |")

    def test_row_inside_an_open_ended_band(self, toy_grid):
        row = _row(report.headline_table(toy_grid),
                   "Avg exec-time reduction, DBypFull vs MESI")
        assert row.endswith("| > 0.0% | yes |")

    def test_unbanded_row_is_reported_not_judged(self, toy_grid):
        row = _row(report.headline_table(toy_grid),
                   "MMemL1 overhead share of traffic")
        assert row.endswith("| — | — |")

    def test_table_ends_with_the_fairness_note(self, toy_grid):
        text = report.headline_table(toy_grid)
        assert text.splitlines()[-1] == report.FAIRNESS_NOTE
        assert "Table 4.2" in report.FAIRNESS_NOTE

    def test_bands_are_strict(self):
        claim = report.Claim("x", 0.1, "5.1", lambda g: 0.0,
                             low=0.0, high=0.3)
        assert not claim.in_band(0.0)
        assert not claim.in_band(0.3)
        assert claim.in_band(0.15)
        open_high = report.Claim("x", 0.1, "5.1", lambda g: 0.0,
                                 low=-0.02)
        assert open_high.in_band(5.0) and not open_high.in_band(-0.02)
        open_low = report.Claim("x", 0.1, "5.1", lambda g: 0.0,
                                high=0.3)
        assert open_low.in_band(-5.0) and open_low.band_text() == "< 30.0%"

    def test_headlines_keep_the_three_field_shape(self):
        # The benchmark's headline-error metric unpacks these rows and
        # parses the paper string.
        assert len(report.HEADLINES) == len(report.CLAIMS)
        for row, claim in zip(report.HEADLINES, report.CLAIMS):
            label, paper, metric = row
            assert label == claim.label
            assert metric is claim.metric
            assert float(paper.rstrip("%")) / 100 == pytest.approx(
                claim.paper, abs=1e-12)
