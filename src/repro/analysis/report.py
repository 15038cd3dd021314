"""Generate the paper-vs-measured experiment report.

``python -m repro report`` prints the full EXPERIMENTS.md content:
every figure's regenerated table, the headline paper-vs-measured
comparison and the energy/EDP section.  The grid comes from the runner
subsystem's durable result store, simulating missing cells first —
shard that across cores with ``python -m repro report --jobs 8``.
"""

from __future__ import annotations

from typing import List

from repro.analysis.energy import report_section as energy_section
from repro.analysis.experiments import (
    average_exec_time_reduction, average_overhead_fraction,
    average_traffic_reduction, average_waste_fraction,
    traffic_reduction)
from repro.analysis.figures import ALL_FIGURES, table_4_1, table_4_2
from repro.common.config import DEFAULT_SCALE
from repro.workloads import WORKLOAD_ORDER

#: (label, paper value, metric function) for the headline table.
HEADLINES = (
    ("Avg traffic reduction, DBypFull vs MESI", "39.5%",
     lambda g: average_traffic_reduction(g, "DBypFull", "MESI")),
    ("Avg traffic reduction, DBypFull vs MMemL1", "35.2%",
     lambda g: average_traffic_reduction(g, "DBypFull", "MMemL1")),
    ("Avg traffic reduction, DBypFull vs DFlexL1", "18.9%",
     lambda g: average_traffic_reduction(g, "DBypFull", "DFlexL1")),
    ("Avg traffic reduction, DeNovo vs MESI", "13.9%",
     lambda g: average_traffic_reduction(g, "DeNovo", "MESI")),
    ("Avg traffic reduction, MMemL1 vs MESI", "6.2%",
     lambda g: average_traffic_reduction(g, "MMemL1", "MESI")),
    ("Avg exec-time reduction, DBypFull vs MESI", "10.5%",
     lambda g: average_exec_time_reduction(g, "DBypFull", "MESI")),
    ("Avg exec-time reduction, MMemL1 vs MESI", "3.8%",
     lambda g: average_exec_time_reduction(g, "MMemL1", "MESI")),
    ("MESI overhead share of traffic", "13.6%",
     lambda g: average_overhead_fraction(g, "MESI")),
    ("MMemL1 overhead share of traffic", "12.1%",
     lambda g: average_overhead_fraction(g, "MMemL1")),
    ("DBypFull residual waste share", "8.8%",
     lambda g: average_waste_fraction(g, "DBypFull")),
)


def headline_table(grid) -> str:
    lines = ["| Metric | Paper | Measured |", "|---|---|---|"]
    for label, paper, metric in HEADLINES:
        lines.append(f"| {label} | {paper} | {metric(grid):.1%} |")
    return "\n".join(lines)


def per_app_table(grid) -> str:
    red = traffic_reduction(grid, "DBypFull", "MESI")
    lines = ["| Workload | DBypFull traffic vs MESI |", "|---|---|"]
    for workload in WORKLOAD_ORDER:
        lines.append(f"| {workload} | -{red[workload]:.1%} |")
    lines.append("| *paper range* | *-22.9% .. -64.2%* |")
    return "\n".join(lines)


def generate(grid, energy_config=None) -> str:
    """Full report text (the body of EXPERIMENTS.md) for ``grid``.

    The counter-driven energy/EDP section closes the report, rendered
    for every technology preset; ``energy_config`` supplies the machine
    shape when the grid was swept on a non-default one (it defaults to
    the paper's 16-tile machine).
    """
    parts: List[str] = []
    parts.append("## Headline comparison (paper Section 5.1)\n")
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
