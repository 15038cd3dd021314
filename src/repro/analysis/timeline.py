"""Per-tile mesh utilization timeline from an observed run.

Renders the :class:`~repro.obs.session.ObsSession` phase-sampler time
series as one heat strip per tile: each column is a slice of simulated
time, each cell's shade is the number of flits the tile's router
forwarded in that slice (link-source attribution, the same counter the
Chrome trace exports as ``tile link flits/interval``).  Hot tiles —
memory-controller corners, the barrier home — stand out immediately,
which is the figure's whole job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Shade ramp, cold to hot.
SHADES = " .:-=+*#%@"


@dataclass
class TimelineFigure:
    """Heat-strip timeline: ``strips[tile][column]`` = flits forwarded."""

    workload: str
    protocol: str
    num_tiles: int
    cycles: Tuple[int, int]          # (first, last) sampled cycle
    columns: int
    strips: Dict[int, List[float]]
    phases: int

    def render(self) -> str:
        lines = [f"=== timeline: {self.workload} / {self.protocol} "
                 f"({self.num_tiles} tiles) ===",
                 f"cycles {self.cycles[0]}..{self.cycles[1]}, "
                 f"{self.columns} columns, {self.phases} barrier phase(s); "
                 f"shade = flits forwarded per tile router "
                 f"(scale '{SHADES}')"]
        peak = max((max(strip) for strip in self.strips.values()
                    if strip), default=0.0)
        for tile in sorted(self.strips):
            strip = self.strips[tile]
            chars = []
            for value in strip:
                if peak <= 0:
                    chars.append(SHADES[0])
                else:
                    idx = int(value / peak * (len(SHADES) - 1) + 0.5)
                    chars.append(SHADES[idx])
            lines.append(f"tile {tile:3d} |{''.join(chars)}|")
        if peak > 0:
            lines.append(f"peak: {peak:.0f} flits/column")
        return "\n".join(lines)


def figure_timeline(session, width: int = 64) -> TimelineFigure:
    """Build the per-tile utilization timeline from an ``ObsSession``.

    Degrades gracefully: a run too short to produce sampler ticks (or a
    session created before the run) renders a single empty column per
    tile instead of raising.
    """
    num_tiles = int(session.meta.get("num_tiles", len(session.tile_flits)))
    samples = session.samples
    first = samples[0]["cycle"] if samples else 0
    last = samples[-1]["cycle"] if samples else 0
    span = last - first
    columns = min(width, len(samples)) if span > 0 else 1
    strips: Dict[int, List[float]] = {
        tile: [0.0] * columns for tile in range(num_tiles)}
    if span > 0:
        for cycle, _events, tiles in session.intervals():
            col = int((cycle - first) / span * (columns - 1))
            for tile, flits in enumerate(tiles):
                strips[tile][col] += flits
    return TimelineFigure(
        workload=str(session.meta.get("workload", "?")),
        protocol=str(session.meta.get("protocol", "?")),
        num_tiles=num_tiles,
        cycles=(first, last),
        columns=columns,
        strips=strips,
        phases=session.phases,
    )
