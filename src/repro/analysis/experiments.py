"""Headline aggregates over a ``grid[workload][protocol] -> RunResult``
result grid (paper Section 5.1).

Grids come from :func:`repro.runner.sweep_grid`, which simulates missing
cells through the durable result store.
"""

from __future__ import annotations

from typing import Dict

from repro.core.stats import RunResult

Grid = Dict[str, Dict[str, RunResult]]


# ----------------------------------------------------------------------
# Headline aggregates (paper Section 5.1)
# ----------------------------------------------------------------------

def traffic_reduction(grid: Grid, proto: str, baseline: str) -> Dict[str, float]:
    """Per-workload traffic reduction of ``proto`` relative to ``baseline``.

    Positive = less traffic than the baseline (the paper's averages are
    in ``repro.analysis.report.CLAIMS``).
    """
    out = {}
    for workload, protos in grid.items():
        base = protos[baseline].traffic_total()
        new = protos[proto].traffic_total()
        out[workload] = 1.0 - new / base if base else 0.0
    return out


def average_traffic_reduction(grid: Grid, proto: str,
                              baseline: str) -> float:
    values = traffic_reduction(grid, proto, baseline)
    return sum(values.values()) / len(values) if values else 0.0


def exec_time_reduction(grid: Grid, proto: str,
                        baseline: str) -> Dict[str, float]:
    out = {}
    for workload, protos in grid.items():
        base = protos[baseline].exec_cycles
        new = protos[proto].exec_cycles
        out[workload] = 1.0 - new / base if base else 0.0
    return out


def average_exec_time_reduction(grid: Grid, proto: str,
                                baseline: str) -> float:
    values = exec_time_reduction(grid, proto, baseline)
    return sum(values.values()) / len(values) if values else 0.0


def average_overhead_fraction(grid: Grid, proto: str) -> float:
    """Average fraction of a protocol's traffic that is overhead."""
    values = [protos[proto].overhead_fraction() for protos in grid.values()]
    return sum(values) / len(values) if values else 0.0


def average_waste_fraction(grid: Grid, proto: str) -> float:
    """Average fraction of a protocol's traffic moving wasted words."""
    values = [protos[proto].waste_fraction_of_traffic()
              for protos in grid.values()]
    return sum(values) / len(values) if values else 0.0
