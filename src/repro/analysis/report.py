"""Generate the paper-vs-measured experiment report.

``python -m repro report`` prints the report body: every figure's
regenerated table, the headline paper-vs-measured comparison and the
energy/EDP section.  The grid comes from the runner subsystem's durable
result store, simulating missing cells first — shard that across cores
with ``python -m repro report --jobs 8``.

:data:`CLAIMS` is the one table of the paper's headline numbers: the
report prints it, and the paper-fidelity tests in ``benchmarks/`` assert
its bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis.energy import report_section as energy_section
from repro.analysis.experiments import (
    Grid, average_exec_time_reduction, average_overhead_fraction,
    average_traffic_reduction, average_waste_fraction,
    traffic_reduction)
from repro.analysis.figures import ALL_FIGURES, table_4_1, table_4_2
from repro.common.config import DEFAULT_SCALE
from repro.workloads import WORKLOAD_ORDER


@dataclass(frozen=True)
class Claim:
    """One headline number of the paper and the band a measurement of
    it must fall in: ``low < value < high``, either side open when
    ``None``; a claim with neither side is reported, not checked."""

    label: str
    paper: float                  # the paper's value, as a fraction
    section: str                  # where the paper reports it
    metric: Callable[[Grid], float]
    low: Optional[float] = None
    high: Optional[float] = None

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


CLAIMS = (
    Claim("Avg traffic reduction, DBypFull vs MESI", 0.395, "5.1",
          lambda g: average_traffic_reduction(g, "DBypFull", "MESI"),
          low=0.25, high=0.70),
    Claim("Avg traffic reduction, DBypFull vs MMemL1", 0.352, "5.1",
          lambda g: average_traffic_reduction(g, "DBypFull", "MMemL1"),
          low=0.20, high=0.65),
    Claim("Avg traffic reduction, DBypFull vs DFlexL1", 0.189, "5.1",
          lambda g: average_traffic_reduction(g, "DBypFull", "DFlexL1"),
          low=0.05, high=0.55),
    Claim("Avg traffic reduction, DeNovo vs MESI", 0.139, "5.1",
          lambda g: average_traffic_reduction(g, "DeNovo", "MESI"),
          low=0.05, high=0.45),
    Claim("Avg traffic reduction, MMemL1 vs MESI", 0.062, "5.1",
          lambda g: average_traffic_reduction(g, "MMemL1", "MESI"),
          low=0.0, high=0.30),
    Claim("Avg exec-time reduction, DBypFull vs MESI", 0.105, "5.1",
          lambda g: average_exec_time_reduction(g, "DBypFull", "MESI"),
          low=0.0),
    Claim("Avg exec-time reduction, MMemL1 vs MESI", 0.038, "5.1",
          lambda g: average_exec_time_reduction(g, "MMemL1", "MESI"),
          low=-0.02),
    Claim("MESI overhead share of traffic", 0.136, "5.2.4",
          lambda g: average_overhead_fraction(g, "MESI"),
          low=0.05, high=0.30),
    Claim("MMemL1 overhead share of traffic", 0.121, "5.2.4",
          lambda g: average_overhead_fraction(g, "MMemL1")),
    Claim("DBypFull residual waste share", 0.088, "5.3",
          lambda g: average_waste_fraction(g, "DBypFull"),
          low=0.01, high=0.30),
)

#: ``(label, "39.5%", metric)`` per claim.  Kept in this shape because
#: the benchmark's ``headline_err_pp`` unpacks it and parses the string.
HEADLINES = tuple((c.label, f"{c.paper:.1%}", c.metric) for c in CLAIMS)

FAIRNESS_NOTE = (
    "Inputs are scaled down from the paper's (Table 4.2), so the bands "
    "are wide: magnitudes shift with scale, orderings must not.")


def headline_table(grid) -> str:
    lines = ["| Metric | Paper | Measured | Band | In band |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        value = claim.metric(grid)
        verdict = ("—" if not claim.banded
                   else "yes" if claim.in_band(value) else "no")
        lines.append(f"| {claim.label} (Section {claim.section}) "
                     f"| {claim.paper:.1%} | {value:.1%} "
                     f"| {claim.band_text()} | {verdict} |")
    lines.append("")
    lines.append(FAIRNESS_NOTE)
    return "\n".join(lines)


def per_app_table(grid) -> str:
    red = traffic_reduction(grid, "DBypFull", "MESI")
    lines = ["| Workload | DBypFull traffic vs MESI |", "|---|---|"]
    for workload in WORKLOAD_ORDER:
        lines.append(f"| {workload} | -{red[workload]:.1%} |")
    lines.append("| *paper range* | *-22.9% .. -64.2%* |")
    return "\n".join(lines)


def generate(grid, energy_config=None) -> str:
    """The report body for ``grid``.

    The counter-driven energy/EDP section closes the report, rendered
    for every technology preset; ``energy_config`` supplies the machine
    shape when the grid was swept on a non-default one (it defaults to
    the paper's 16-tile machine).
    """
    parts: List[str] = []
    parts.append("## Headline comparison (paper Sections 5.1-5.3)\n")
    parts.append(headline_table(grid))
    parts.append("\n## Per-workload DBypFull traffic reduction\n")
    parts.append(per_app_table(grid))
    parts.append("\n## Configuration tables\n")
    parts.append("```\n" + table_4_1() + "\n\n"
                 + table_4_2(DEFAULT_SCALE) + "\n```")
    for fig_id, builder in ALL_FIGURES.items():
        fig = builder(grid)
        parts.append(f"\n## {fig.figure_id}: {fig.title}\n")
        parts.append("```\n" + fig.render() + "\n```")
    parts.append("\n" + energy_section(grid, config=energy_config))
    return "\n".join(parts)
