"""H4 — residual waste in the fully optimized protocol (Section 5.3).

Paper: a small share of DBypFull's remaining traffic moves non-useful
data (a banded claim in ``repro.analysis.report.CLAIMS``), down from far
more under MESI; the residue comes from irregular access patterns
(fluidanimate's under-filled slots, LU's triangular blocks, barnes'
conditional fields, kD-tree's dynamic pointer pairs) and cannot be
removed without losing performance.
"""

from repro.analysis.experiments import average_waste_fraction
from repro.waste.profiler import Category
from repro.workloads import WORKLOAD_ORDER


def test_residual_waste(grid):
    mesi = average_waste_fraction(grid, "MESI")
    best = average_waste_fraction(grid, "DBypFull")
    # The optimization stack removes most, but not all, wasted movement.
    assert best < mesi * 0.75


def test_irregular_residuals(grid):
    """The residual waste has the causes the paper names."""
    # fluidanimate: under-filled particle slots -> Evict waste survives
    # every optimization.
    fluid = grid["fluidanimate"]["DBypFull"]
    assert fluid.l1_waste[Category.EVICT] > 0

    # kD-tree / barnes: Flex's cross-line gathering re-delivers words
    # already present -> Fetch waste at the L1 (Section 5.3).
    for workload in ("barnes", "kD-tree"):
        assert grid[workload]["DBypFull"].l1_waste[Category.FETCH] > 0, (
            workload)

    # MESI wastes more words at the L1 than DBypFull on every workload.
    for workload in WORKLOAD_ORDER:
        mesi = grid[workload]["MESI"]
        best = grid[workload]["DBypFull"]
        mesi_waste = sum(v for c, v in mesi.l1_waste.items()
                         if c is not Category.USED)
        best_waste = sum(v for c, v in best.l1_waste.items()
                         if c is not Category.USED)
        assert best_waste < mesi_waste, workload
