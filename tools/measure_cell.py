#!/usr/bin/env python3
"""Measure one simulated cell: events, result digest, CPU time, peak RSS.

Builds one workload at the given scale, simulates it under one protocol
rung on the machine ``scaled_system`` gives that scale, and prints:

* ``events`` -- the run's ``RunResult.events``;
* ``digest`` -- sha256 of ``result_to_dict`` serialized as sorted,
  compact JSON, so two commits that simulate identically print the same;
* ``acted_flags`` -- the ``ProtocolConfig`` flags that acted in the run,
  in field order (``-`` for none).  ``simulate()`` copies this run's
  result to a later rung of the same kind only when every flag the two
  rungs differ on is missing here;
* ``build_cpu_s`` / ``sim_cpu_s`` -- process CPU time of the trace build
  and of the simulation;
* ``peak_rss_mib`` -- this process's peak resident set after the run
  (``ru_maxrss``), so run each measurement in a fresh process;
* ``l1_words`` / ``l2_words`` / ``mem_words`` -- each waste level's
  window words (``total_words()``: the words it received after warm-up)
  and counted words (the sum of its window counts), with the excess.
  The cache levels count exactly their window words; the memory level
  also counts warm-up instances settled in the window (ROADMAP item 2);
* ``mem_index`` -- the memory profiler's pending-index side dict just
  before finalize: the addresses it holds, the handles in their sets
  and how many of those are still pending.  The index is lazy (a
  settled handle stays until its address is indexed again), so the
  difference is what lazy deletion leaves behind.

With ``--top N`` the cell is built and simulated a second time under
``tracemalloc``; just before ``SimContext.finalize`` a snapshot is
taken and the N largest allocation sites (by line) are listed with the
live heap and the traced peak.  The traced run is slower and its
numbers do not change the untraced ones above, which are printed first.

Run from anywhere (the script puts this checkout's ``src`` first on the
import path)::

    python tools/measure_cell.py --workload kD-tree --protocol MESI \\
        --scale paper --top 15
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.common.config import (  # noqa: E402
    PROTOCOL_FLAGS, ScaleConfig, protocol, scaled_system)
from repro.core.context import SimContext  # noqa: E402
from repro.core.simulator import simulate  # noqa: E402
from repro.runner.jobs import DEFAULT_SEED  # noqa: E402
from repro.runner.store import result_to_dict  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

SCALES = {
    "tiny": ScaleConfig.tiny,
    "small": ScaleConfig,
    "paper": ScaleConfig.paper,
}
MIB = 1024.0 * 1024.0


def result_digest(result) -> str:
    text = json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def window_words(ctx: SimContext):
    """``(level, window words, counted words)`` of each waste level."""
    return [(name, prof.total_words(), sum(prof.counts().values()))
            for name, prof in (("l1", ctx.l1_prof), ("l2", ctx.l2_prof),
                               ("mem", ctx.mem_prof))]


def side_dict(ctx: SimContext):
    """``(addresses, handles, pending handles)`` of the memory
    profiler's pending-index side dict."""
    prof = ctx.mem_prof
    cat = prof.pools.mem_cat
    sets = prof._spill.values()
    return (len(sets), sum(len(handles) for handles in sets),
            sum(not cat[handle] for handles in sets for handle in handles))


def run_cell(ns: argparse.Namespace):
    """Build and simulate the cell; return (result, build_s, sim_s,
    window_words, side_dict, acted_flags)."""
    scale = SCALES[ns.scale]()
    config = scaled_system(scale)
    levels = []
    index = []
    finalize = SimContext.finalize

    def finalize_then_count(ctx):
        index.extend(side_dict(ctx))
        finalize(ctx)
        levels.extend(window_words(ctx))

    SimContext.finalize = finalize_then_count
    try:
        start = time.process_time()
        workload = build_workload(ns.workload, scale,
                                  num_cores=config.num_tiles, seed=ns.seed)
        built = time.process_time()
        result = simulate(workload, ns.protocol, config)
        done = time.process_time()
    finally:
        SimContext.finalize = finalize
    acted = workload.results[(protocol(ns.protocol), config)].acted
    return (result, built - start, done - built, levels, index,
            [flag for flag in PROTOCOL_FLAGS if flag in acted])


def top_sites(ns: argparse.Namespace) -> None:
    """Simulate the cell again under tracemalloc and list the ``ns.top``
    largest allocation sites live just before ``SimContext.finalize``."""
    snapshots = []
    finalize = SimContext.finalize

    def snapshot_then_finalize(ctx):
        snapshots.append(tracemalloc.take_snapshot())
        finalize(ctx)

    SimContext.finalize = snapshot_then_finalize
    tracemalloc.start()
    try:
        run_cell(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        SimContext.finalize = finalize
    stats = snapshots[0].statistics("lineno")
    live = sum(stat.size for stat in stats)
    print(f"tracemalloc live_at_finalize_mib {live / MIB:.1f} "
          f"peak_mib {peak / MIB:.1f}")
    for rank, stat in enumerate(stats[:ns.top], 1):
        frame = stat.traceback[0]
        path = Path(frame.filename)
        if path.is_relative_to(ROOT):
            path = path.relative_to(ROOT)
        print(f"{rank:3d}. {stat.size / MIB:8.1f} MiB {stat.count:9d} blocks"
              f"  {path}:{frame.lineno}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one cell: events, digest, CPU time, peak RSS.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N largest allocation sites "
                             "before finalize (second, traced run)")
    ns = parser.parse_args(argv)
    if ns.top < 0:
        parser.error("--top must be non-negative")

    result, build_s, sim_s, levels, index, acted = run_cell(ns)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"cell {ns.workload} x {ns.protocol} @ {ns.scale} seed {ns.seed}")
    print(f"events {result.events}")
    print(f"digest {result_digest(result)}")
    print(f"acted_flags {' '.join(acted) or '-'}")
    print(f"build_cpu_s {build_s:.2f}")
    print(f"sim_cpu_s {sim_s:.2f}")
    print(f"peak_rss_mib {peak_rss:.1f}")
    for name, window, counted in levels:
        excess = counted - window
        share = 100.0 * excess / window if window else 0.0
        print(f"{name}_words window {window} counted {counted} "
              f"excess {excess:+d} ({share:+.1f}%)")
    print("mem_index spilled_addrs {} handles {} pending {}".format(*index))
    sys.stdout.flush()
    if ns.top:
        del result
        gc.collect()
        top_sites(ns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
