"""Generate the paper-vs-measured experiment report.

``python -m repro report`` prints the report body: the headline
paper-vs-measured comparison, the configuration tables of the machine
and inputs that were simulated, every figure's regenerated table and
the energy/EDP section, plus the core-count scaling figure when it is
given several machine shapes.  The grid comes from the runner
subsystem's durable result store, simulating missing cells first —
shard that across cores with ``python -m repro report --jobs 8``.

:data:`CLAIMS` is the one table of the paper's headline numbers: the
report prints it, and the paper-fidelity tests in ``benchmarks/`` assert
its bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.energy import report_section as energy_section
from repro.analysis.experiments import (
    Grid, average_exec_time_reduction, average_overhead_fraction,
    average_traffic_reduction, average_waste_fraction,
    traffic_reduction)
from repro.analysis.figures import ALL_FIGURES, table_4_1, table_4_2
from repro.analysis.scaling import ShapeGrid, figure_scaling
from repro.workloads import WORKLOAD_ORDER


def _swept(grid: Grid, rungs: Sequence[str]) -> bool:
    """Whether every workload of ``grid`` ran every one of ``rungs``."""
    return all(rung in protos for protos in grid.values() for rung in rungs)


@dataclass(frozen=True)
class Claim:
    """One headline number of the paper and the band a measurement of
    it must fall in: ``low < value < high``, either side open when
    ``None``; a claim with neither side is reported, not checked.
    ``rungs`` names the protocols ``metric`` reads."""

    label: str
    paper: float                  # the paper's value, as a fraction
    section: str                  # where the paper reports it
    metric: Callable[[Grid], float]
    low: Optional[float] = None
    high: Optional[float] = None
    rungs: Tuple[str, ...] = ()

    @property
    def banded(self) -> bool:
        return self.low is not None or self.high is not None

    def in_band(self, value: float) -> bool:
        return ((self.low is None or self.low < value)
                and (self.high is None or value < self.high))

    def band_text(self) -> str:
        if self.low is None and self.high is None:
            return "—"
        if self.high is None:
            return f"> {self.low:.1%}"
        if self.low is None:
            return f"< {self.high:.1%}"
        return f"{self.low:.1%} .. {self.high:.1%}"


def _claim(label: str, paper: float, section: str, aggregate,
           *rungs: str, low: Optional[float] = None,
           high: Optional[float] = None) -> Claim:
    """The claim that ``aggregate(grid, *rungs)`` matches ``paper``."""
    return Claim(label, paper, section, lambda g: aggregate(g, *rungs),
                 low=low, high=high, rungs=rungs)


CLAIMS = (
    _claim("Avg traffic reduction, DBypFull vs MESI", 0.395, "5.1",
           average_traffic_reduction, "DBypFull", "MESI",
           low=0.25, high=0.70),
    _claim("Avg traffic reduction, DBypFull vs MMemL1", 0.352, "5.1",
           average_traffic_reduction, "DBypFull", "MMemL1",
           low=0.20, high=0.65),
    _claim("Avg traffic reduction, DBypFull vs DFlexL1", 0.189, "5.1",
           average_traffic_reduction, "DBypFull", "DFlexL1",
           low=0.05, high=0.55),
    _claim("Avg traffic reduction, DeNovo vs MESI", 0.139, "5.1",
           average_traffic_reduction, "DeNovo", "MESI",
           low=0.05, high=0.45),
    _claim("Avg traffic reduction, MMemL1 vs MESI", 0.062, "5.1",
           average_traffic_reduction, "MMemL1", "MESI",
           low=0.0, high=0.30),
    _claim("Avg exec-time reduction, DBypFull vs MESI", 0.105, "5.1",
           average_exec_time_reduction, "DBypFull", "MESI", low=0.0),
    _claim("Avg exec-time reduction, MMemL1 vs MESI", 0.038, "5.1",
           average_exec_time_reduction, "MMemL1", "MESI", low=-0.02),
    _claim("MESI overhead share of traffic", 0.136, "5.2.4",
           average_overhead_fraction, "MESI", low=0.05, high=0.30),
    _claim("MMemL1 overhead share of traffic", 0.121, "5.2.4",
           average_overhead_fraction, "MMemL1"),
    _claim("DBypFull residual waste share", 0.088, "5.3",
           average_waste_fraction, "DBypFull", low=0.01, high=0.30),
)

#: ``(label, "39.5%", metric)`` per claim.  Kept in this shape because
#: the benchmark's ``headline_err_pp`` unpacks it and parses the string.
HEADLINES = tuple((c.label, f"{c.paper:.1%}", c.metric) for c in CLAIMS)

FAIRNESS_NOTE = (
    "Inputs are scaled down from the paper's (Table 4.2), so the bands "
    "are wide: magnitudes shift with scale, orderings must not.")


def headline_table(grid) -> str:
    """The claims table; a claim whose rungs ``grid`` lacks reads
    ``not swept``."""
    lines = ["| Metric | Paper | Measured | Band | In band |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        if _swept(grid, claim.rungs):
            value = claim.metric(grid)
            measured = f"{value:.1%}"
            verdict = ("—" if not claim.banded
                       else "yes" if claim.in_band(value) else "no")
        else:
            measured = verdict = "not swept"
        lines.append(f"| {claim.label} (Section {claim.section}) "
                     f"| {claim.paper:.1%} | {measured} "
                     f"| {claim.band_text()} | {verdict} |")
    lines.append("")
    lines.append(FAIRNESS_NOTE)
    return "\n".join(lines)


def per_app_table(grid) -> str:
    """DBypFull's traffic reduction per swept workload, in paper order."""
    red = traffic_reduction(grid, "DBypFull", "MESI")
    order = {workload: i for i, workload in enumerate(WORKLOAD_ORDER)}
    lines = ["| Workload | DBypFull traffic vs MESI |", "|---|---|"]
    for workload in sorted(red, key=lambda w: order.get(w, len(order))):
        lines.append(f"| {workload} | -{red[workload]:.1%} |")
    lines.append("| *paper range* | *-22.9% .. -64.2%* |")
    return "\n".join(lines)


def generate(grid, config=None, scale=None,
             figures: Optional[Sequence[str]] = None,
             preset: Optional[str] = None,
             shapes: Optional[ShapeGrid] = None) -> str:
    """The report body for ``grid``, simulated on machine ``config`` at
    input ``scale`` (default: the paper's 16-tile machine and the
    default scale).

    ``figures`` limits the paper-figure sections to those ids and
    ``preset`` the closing energy/EDP section to one technology preset
    (default: all of each).  ``shapes`` (a
    :func:`repro.runner.sweep_shapes` result) appends the core-count
    scaling figure over every swept shape.
    """
    parts: List[str] = []
    parts.append("## Headline comparison (paper Sections 5.1-5.3)\n")
    parts.append(headline_table(grid))
    if _swept(grid, ("DBypFull", "MESI")):
        parts.append("\n## Per-workload DBypFull traffic reduction\n")
        parts.append(per_app_table(grid))
    parts.append("\n## Configuration tables\n")
    parts.append("```\n" + table_4_1(config) + "\n\n"
                 + table_4_2(scale) + "\n```")
    for fig_id in figures or ALL_FIGURES:
        fig = ALL_FIGURES[fig_id](grid)
        parts.append(f"\n## {fig.figure_id}: {fig.title}\n")
        parts.append("```\n" + fig.render() + "\n```")
    parts.append("\n" + energy_section(
        grid, models=[preset] if preset else None, config=config))
    if shapes:
        parts.append("\n## Core-count scaling (beyond the paper)\n")
        parts.append("```\n" + figure_scaling(
            shapes, energy_model=preset).render() + "\n```")
    return "\n".join(parts)
