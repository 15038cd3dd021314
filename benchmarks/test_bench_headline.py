"""H1/H2 — the paper's headline numbers (Sections 5.1-5.3).

The paper's values and the band each measured average must fall in
live in one table, ``repro.analysis.report.CLAIMS``, which ``python -m
repro report`` prints with an In-band column.  ``test_claim_in_band``
asserts every banded row; the other tests assert the orderings and
per-app results the paper reports (the substrate is a scaled-down
simulator, so magnitudes shift while the ranking must not).
"""

import pytest

from repro.analysis.experiments import (
    average_traffic_reduction, exec_time_reduction, traffic_reduction)
from repro.analysis.report import CLAIMS

BANDED = [claim for claim in CLAIMS if claim.banded]


@pytest.mark.parametrize("claim", BANDED, ids=[c.label for c in BANDED])
def test_claim_in_band(grid, claim):
    value = claim.metric(grid)
    assert claim.in_band(value), (
        f"{claim.label}: {value:.1%} outside {claim.band_text()} "
        f"(paper {claim.paper:.1%}, Section {claim.section})")


def test_headline_traffic(grid):
    best_vs_mesi = average_traffic_reduction(grid, "DBypFull", "MESI")
    best_vs_mmem = average_traffic_reduction(grid, "DBypFull", "MMemL1")
    denovo = average_traffic_reduction(grid, "DeNovo", "MESI")

    # Per-app range: every workload benefits (paper range 22.9-64.2%).
    per_app = traffic_reduction(grid, "DBypFull", "MESI")
    assert all(v > 0.05 for v in per_app.values()), per_app

    # Ranking: the ladder's endpoints are ordered.
    assert best_vs_mesi > best_vs_mmem > 0
    assert best_vs_mesi > denovo


def test_headline_exec_time(grid):
    # The paper's big per-app winners still win.
    per_app = exec_time_reduction(grid, "DBypFull", "MESI")
    assert per_app["fluidanimate"] > 0.0
    assert per_app["radix"] > 0.0
