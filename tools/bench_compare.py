#!/usr/bin/env python3
"""Compare two ``BENCH_sweep.json`` records; gate perf regressions.

Diffs per-cell ``events_per_second`` between a baseline record (the
committed repo-root ``BENCH_sweep.json``) and a freshly measured one:

* a cell regressing by more than ``--threshold`` (default 15%) fails
  the gate (exit 1) — a real hot-path regression;
* smaller regressions print a non-blocking warning (runner noise);
* records with a missing or different ``schema_version``, or from a
  different bench suite, are refused outright (exit 2);
* with ``--attrib-delta``, a failed gate additionally prints the top
  attribution movers (lifecycle segments, stall causes, compute) so
  the failure names *which* part of the simulated work changed — or
  reports the profiles identical, pinning the trip on runner noise.

Run:  python tools/bench_compare.py BASELINE CURRENT [--threshold 0.15]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (
    REGRESSION_THRESHOLD, RecordMismatch, attrib_delta, compare_records,
    load_record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline BENCH_sweep.json")
    parser.add_argument("current", help="freshly measured BENCH_sweep.json")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="hard-fail events/second regression fraction "
                             f"(default: {REGRESSION_THRESHOLD})")
    parser.add_argument("--attrib-delta", action="store_true",
                        help="when a gate fails, diff the records' "
                             "attribution profiles and print the top "
                             "segment/stall movers (names whether the "
                             "simulated work changed or the host did)")
    ns = parser.parse_args(argv)
    try:
        baseline = load_record(ns.baseline)
        current = load_record(ns.current)
        outcome = compare_records(baseline, current,
                                  threshold=ns.threshold)
    except RecordMismatch as exc:
        print(f"bench_compare: refusing to compare: {exc}",
              file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    failed = not outcome["ok"]
    if failed:
        print(f"bench_compare: events_per_second regressed by more than "
              f"{ns.threshold:.0%}", file=sys.stderr)
    if ns.attrib_delta and failed:
        # Attribute the failure: did the simulated work move, or is
        # the host to blame?  (Profiles are deterministic per commit.)
        print("attribution delta (baseline -> current):")
        for line in attrib_delta(baseline, current)["lines"]:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
