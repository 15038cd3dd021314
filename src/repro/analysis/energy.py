"""Energy & EDP figures over a swept grid (beyond the paper).

The paper quantifies protocol efficiency through network traffic and
word-level waste because both proxy *energy*; this module completes the
chain: it derives a per-component energy breakdown for every swept
(workload, protocol) cell under a named technology preset and renders

* :func:`figure_energy` — a stacked per-rung energy-breakdown figure
  (core / L1 / L2 / NoC / MC / DRAM, normalized per workload to the
  MESI bar) mirroring the paper's traffic figures;
* :func:`edp_table` — absolute totals plus the delay-weighted metrics
  (EDP, ED2P) and energy per useful word;
* :func:`report_section` — the markdown section
  ``repro.analysis.report`` embeds, rendered for every preset so the
  process-node sensitivity is visible at a glance.

Everything here is post-hoc arithmetic over stored results — deriving
energy never re-runs a simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.figures import FigureTable, _normalize_grid
from repro.common.config import (
    ENERGY_MODELS, EnergyModelConfig, SystemConfig)
from repro.core.stats import RunResult
from repro.energy import (
    COMPONENT_LABELS, COMPONENTS, EnergyStats, compute_energy,
    resolve_model)

Grid = Dict[str, Dict[str, RunResult]]
ModelLike = Union[str, EnergyModelConfig, None]


def energy_grid(grid: Grid, model: ModelLike = None,
                config: Optional[SystemConfig] = None,
                ) -> Dict[str, Dict[str, EnergyStats]]:
    """Per-cell :class:`EnergyStats` for a swept grid (validated)."""
    return {workload: {proto: compute_energy(result, model, config)
                       for proto, result in protos.items()}
            for workload, protos in grid.items()}


def figure_energy(grid: Grid, model: ModelLike = None,
                  config: Optional[SystemConfig] = None,
                  stats: Optional[Dict[str, Dict[str, EnergyStats]]] = None,
                  ) -> FigureTable:
    """Stacked per-rung energy breakdown, MESI-normalized per workload.

    ``stats``, when given, is a precomputed :func:`energy_grid` result
    for the same (grid, model, config) — callers rendering several
    views (figure + table + summary) derive once and share it.
    """
    em = resolve_model(model)
    labels = tuple(COMPONENT_LABELS[c] for c in COMPONENTS)
    stats = stats if stats is not None else energy_grid(grid, em, config)

    def values(result: RunResult) -> Dict[str, float]:
        cell = stats[result.workload][result.protocol]
        return {COMPONENT_LABELS[c]: cell.component(c) for c in COMPONENTS}

    return FigureTable(
        f"Figure E.1 [{em.name}]",
        f"Total energy by component ({em.name} preset)",
        labels, _normalize_grid(grid, values, labels))


def edp_table(grid: Grid, model: ModelLike = None,
              config: Optional[SystemConfig] = None,
              stats: Optional[Dict[str, Dict[str, EnergyStats]]] = None,
              ) -> str:
    """Absolute energy / EDP / ED2P / energy-per-useful-word table."""
    em = resolve_model(model)
    stats = stats if stats is not None else energy_grid(grid, em, config)
    lines = [f"=== Energy & EDP ({em.name} preset) ===",
             "(absolute values; relative-fidelity estimates, not "
             "silicon-validated)"]
    header = ("  protocol".ljust(14)
              + "total(uJ)".rjust(12) + "EDP(J*s)".rjust(13)
              + "ED2P(J*s^2)".rjust(13) + "E/used-word(nJ)".rjust(17))
    for workload, protos in stats.items():
        lines.append(f"-- {workload}")
        lines.append(header)
        for proto, cell in protos.items():
            # Undefined for a run that used no L1 word: not free.
            per_word = cell.energy_per_useful_word
            lines.append(
                f"  {proto:<12s}"
                f"{cell.total * 1e6:12.2f}"
                f"{cell.edp:13.3e}"
                f"{cell.ed2p:13.3e}"
                + ("n/a".rjust(17) if per_word is None
                   else f"{per_word * 1e9:17.2f}"))
    return "\n".join(lines)


def energy_summary(grid: Grid, model: ModelLike = None,
                   config: Optional[SystemConfig] = None,
                   stats: Optional[Dict[str, Dict[str, EnergyStats]]] = None,
                   ) -> str:
    """One line per workload: DBypFull's energy/EDP saving vs MESI."""
    stats = stats if stats is not None else energy_grid(grid, model, config)
    lines: List[str] = []
    for workload, protos in stats.items():
        if "MESI" not in protos or "DBypFull" not in protos:
            continue
        base, best = protos["MESI"], protos["DBypFull"]
        if not base.total or not base.edp:
            continue
        lines.append(
            f"- {workload}: DBypFull vs MESI — "
            f"{1.0 - best.total / base.total:+.1%} energy, "
            f"{1.0 - best.edp / base.edp:+.1%} EDP")
    return "\n".join(lines)


def report_section(grid: Grid,
                   models: Optional[Sequence[ModelLike]] = None,
                   config: Optional[SystemConfig] = None) -> str:
    """The markdown report section, rendered for every preset."""
    names = list(models) if models else list(ENERGY_MODELS)
    parts = ["## Energy and EDP (beyond the paper)\n",
             "Counter-driven post-hoc energy model "
             "(`repro.energy`): per-event CACTI/McPAT-style costs over "
             "each run's recorded cache, Bloom, NoC, MC and DRAM event "
             "counters, plus leakage scaled by execution time.  Costs "
             "are relative-fidelity estimates — compare rungs and "
             "presets, don't quote absolute joules.\n"]
    for model in names:
        stats = energy_grid(grid, model, config)
        summary = energy_summary(grid, model, config, stats=stats)
        if summary:
            parts.append(summary + "\n")
        parts.append("```\n"
                     + figure_energy(grid, model, config,
                                     stats=stats).render()
                     + "\n```\n")
        parts.append("```\n" + edp_table(grid, model, config, stats=stats)
                     + "\n```")
    return "\n".join(parts)
