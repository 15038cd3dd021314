#!/usr/bin/env python3
"""Core-count scaling: one workload swept across machine shapes.

The paper evaluates its nine protocol rungs on exactly one machine (a
16-tile 4x4 mesh).  With the machine shape a first-class axis, this
example sweeps one workload across tile counts and prints the scaling
table: execution time and network flit-hops per (shape, protocol), with
each cell shown relative to the smallest machine.

Run:  python examples/core_scaling.py [workload] [tiles ...]
      python examples/core_scaling.py radix 4 16
"""

import sys

from repro.analysis.scaling import figure_scaling
from repro.common.config import ScaleConfig
from repro.runner import sweep_shapes


def main(argv) -> None:
    workload = argv[1] if len(argv) > 1 else "radix"
    tiles = tuple(int(a) for a in argv[2:]) or (4, 16)
    protocols = ("MESI", "DeNovo", "DBypFull")
    print(f"sweeping {workload} x {protocols} across "
          f"{', '.join(f'{t} tiles' for t in tiles)} (tiny scale)...")
    shapes = sweep_shapes(tiles, workloads=(workload,), protocols=protocols,
                          scale=ScaleConfig.tiny(), use_cache=False)
    print()
    print(figure_scaling(shapes).render())
    print()
    # The paper-style takeaway, now as a function of machine size.
    smallest, largest = min(tiles), max(tiles)
    for t in (smallest, largest):
        protos = shapes[t][workload]
        saving = 1.0 - (protos["DBypFull"].traffic_total()
                        / protos["MESI"].traffic_total())
        print(f"{t:3d} tiles: DBypFull moves {saving:.1%} less traffic "
              f"than MESI")


if __name__ == "__main__":
    main(sys.argv)
