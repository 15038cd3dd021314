"""Core-count scaling experiment (beyond the paper's single data point).

The paper evaluates every protocol rung on exactly one machine — a
16-tile 4x4 mesh.  With the machine shape a first-class sweep axis,
this module asks the natural follow-up question: how does the nine-rung
coherence ladder behave as the core count grows?

:func:`repro.runner.sweep_shapes` sweeps a (workload x shape x protocol)
grid; :func:`figure_scaling` turns the swept results into the scaling
figure — execution time, flit-hop network traffic and energy vs. tile
count, one line per protocol rung.  ``python -m repro report --tiles
4,16,64`` appends it to the report.

>>> from repro.runner import sweep_shapes
>>> shapes = sweep_shapes((4, 16), workloads=("radix",), jobs=4)
>>> print(figure_scaling(shapes).render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.core.stats import RunResult

#: ``shapes[num_tiles][workload][protocol] -> RunResult``.
ShapeGrid = Dict[int, Dict[str, Dict[str, RunResult]]]


@dataclass
class ScalingFigure:
    """The core-count scaling figure as structured data.

    ``rows[workload][protocol][num_tiles]`` holds the two plotted
    metrics for one cell: ``exec_cycles`` (workload execution time) and
    ``traffic`` (total network flit-hops).  ``render()`` produces the
    text rendition: per workload, one block per metric, one line per
    protocol rung, one column per tile count, with each cell also shown
    relative to the protocol's smallest-machine point (``xN.NN``) so
    the scaling trend reads directly.
    """

    title: str
    tiles: Tuple[int, ...]
    rows: Dict[str, Dict[str, Dict[int, Dict[str, float]]]]

    #: Per-instance when the energy preset differs from the default —
    #: :func:`figure_scaling` overrides the energy label with the
    #: resolved preset name.
    METRICS = (("exec_cycles", "Execution time (cycles)"),
               ("traffic", "Network traffic (flit-hops)"),
               ("energy", "Total energy (nJ, 45nm preset)"))

    def metric(self, workload: str, protocol: str, num_tiles: int,
               name: str) -> float:
        return self.rows[workload][protocol][num_tiles][name]

    #: Width of one (value, relative) column in the text rendition.
    _CELL_WIDTH = 20

    def _render_metric(self, workload: str, key: str, label: str,
                       lines: List[str]) -> None:
        lines.append(f"-- {workload}: {label}")
        header = "  protocol".ljust(14) + "".join(
            f"{t}t (vs {self.tiles[0]}t)".rjust(self._CELL_WIDTH)
            for t in self.tiles)
        lines.append(header)
        for proto, cells in self.rows[workload].items():
            base = cells[self.tiles[0]][key] or 1.0
            row = f"  {proto:<12s}"
            for t in self.tiles:
                value = cells[t][key]
                cell = f"{value:.0f} (x{value / base:.2f})"
                row += cell.rjust(self._CELL_WIDTH)
            lines.append(row)

    def render(self) -> str:
        lines = [f"=== {self.title} ===",
                 "(absolute values; xN.NN = relative to the smallest "
                 "machine)"]
        for workload in self.rows:
            for key, label in self.METRICS:
                self._render_metric(workload, key, label, lines)
        return "\n".join(lines)


def figure_scaling(shapes: ShapeGrid,
                   title: str = "Core-count scaling",
                   energy_model=None) -> ScalingFigure:
    """Build the scaling figure from :func:`repro.runner.sweep_shapes`
    results.

    The energy line derives post hoc from each cell's recorded counters
    under ``energy_model`` (a preset name or config; default preset when
    omitted), with the unit counts of a machine of the cell's tile
    count — how the coherence ladder's *energy* cost moves with the
    machine size is exactly the question the shape axis opens up.
    """
    from repro.energy import compute_energy, resolve_model
    if not shapes:
        raise ValueError("no swept shapes to render")
    em = resolve_model(energy_model)
    tiles = tuple(sorted(shapes))
    rows: Dict[str, Dict[str, Dict[int, Dict[str, float]]]] = {}
    for num_tiles in tiles:
        config = SystemConfig(num_tiles=num_tiles)
        for workload, protos in shapes[num_tiles].items():
            for proto, result in protos.items():
                energy = compute_energy(result, em, config)
                rows.setdefault(workload, {}).setdefault(proto, {})[
                    num_tiles] = {
                        "exec_cycles": float(result.exec_cycles),
                        "traffic": float(result.traffic_total()),
                        "energy": energy.total * 1e9,
                }
    # Every (workload, protocol) line needs a point at every tile count,
    # otherwise the relative columns would silently compare different
    # protocol sets across shapes.
    for workload, protos in rows.items():
        for proto, cells in protos.items():
            missing = [t for t in tiles if t not in cells]
            if missing:
                raise ValueError(
                    f"{workload} x {proto} missing tile counts {missing}; "
                    f"sweep every shape before rendering")
    figure = ScalingFigure(title=title, tiles=tiles, rows=rows)
    figure.METRICS = (
        ("exec_cycles", "Execution time (cycles)"),
        ("traffic", "Network traffic (flit-hops)"),
        ("energy", f"Total energy (nJ, {em.name} preset)"))
    return figure
