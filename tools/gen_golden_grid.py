#!/usr/bin/env python3
"""Regenerate the golden tiny-scale paper grid (tests/golden/grid_tiny.json).

Runs every (workload, protocol) cell of the paper grid at ``tiny`` scale,
in-process and without any result cache, and snapshots the serialized
``RunResult`` of each cell.  ``tests/test_golden_grid.py`` asserts that
the current code reproduces these snapshots bit-for-bit, so regenerate
the file only when a change is *supposed* to alter simulation results
(and say so in the commit message).

Every cell gets a freshly built workload, so ``simulate()`` never reuses
another rung's result here: each snapshot is an independent simulation,
and the golden test, which runs a kernel's rungs on one workload,
checks every reused result against it.

Run:  PYTHONPATH=src python tools/gen_golden_grid.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.common.config import PROTOCOL_ORDER, ScaleConfig, scaled_system
from repro.core.simulator import simulate
from repro.runner.store import result_to_dict
from repro.workloads import WORKLOAD_ORDER, build_workload

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "grid_tiny.json"


def build_grid() -> dict:
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    grid: dict = {}
    for workload_name in WORKLOAD_ORDER:
        for proto in PROTOCOL_ORDER:
            workload = build_workload(workload_name, scale)
            result = simulate(workload, proto, config)
            grid.setdefault(workload_name, {})[proto] = result_to_dict(result)
            print(f"  {workload_name:<14s} {proto:<12s} "
                  f"exec={result.exec_cycles} events={result.events}",
                  file=sys.stderr)
    return grid


def main() -> int:
    payload = {
        "description": "tiny-scale paper grid goldens (bit-identity regression)",
        "scale": "tiny",
        "grid": build_grid(),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
