#!/usr/bin/env python3
"""Perf smoke: time a tiny-scale radix x {MESI, DeNovo} sweep.

Thin script wrapper around :mod:`repro.bench` (also reachable as
``python -m repro bench``).  Runs the smoke cells in-process, serially
and cache-free (so the numbers are pure simulation speed, not store
hits), timing each cell under both execution engines — interleaved,
with per-cell medians and full bit-identity asserted — and writes a
``BENCH_new.json`` record carrying ``schema_version`` and a
``git_describe`` stamp.  CI compares the fresh
record against the committed repo-root baseline with
``tools/bench_compare.py`` and uploads it as a workflow artifact.

Also sanity-checks the runner's trace memo: the measured warm
(memoized-trace) cell time must beat the cold (build + simulate) cell
time, or the trace memo is not actually saving work.

Run:  PYTHONPATH=src python benchmarks/perf_smoke.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import run_smoke, write_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # The default differs from the committed repo-root BENCH_sweep.json
    # baseline so a bare run cannot clobber it.
    parser.add_argument("--out", default="BENCH_new.json",
                        help="output JSON path (default: BENCH_new.json)")
    ns = parser.parse_args(argv)
    record = run_smoke()
    memo = record["trace_memo"]
    assert memo["warm_cell_seconds"] < memo["cold_cell_seconds"], (
        f"warm (memoized) cell took {memo['warm_cell_seconds']}s vs "
        f"{memo['cold_cell_seconds']}s cold — the trace memo is not "
        f"saving work")
    write_record(record, ns.out)
    print(json.dumps(record, indent=2))
    print(f"wrote {ns.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
