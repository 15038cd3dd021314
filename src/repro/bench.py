"""Perf-smoke benchmark records and the regression-compare gate.

Two halves, shared by ``benchmarks/perf_smoke.py``, ``python -m repro
bench`` and ``tools/bench_compare.py``:

* :func:`run_smoke` times a tiny-scale radix x {MESI, DeNovo} sweep
  plus one 4-tile cell and returns a JSON-able record.  All cells are
  timed **interleaved** (A/B/A/B… across the whole cell list,
  ``repeats`` rounds) and each cell records its **median** — run-to-run
  drift on a shared runner hits every cell alike instead of
  masquerading as a speedup for whichever happened to run in the quiet
  window.  The record carries
  ``schema_version`` and a ``git_describe`` stamp so records from
  incompatible layouts or unknown commits are never silently compared;
  :func:`write_record` refuses to stamp the committed baseline from a
  ``-dirty`` tree.
* :func:`compare_records` diffs two records cell-by-cell on
  ``events_per_second`` and classifies the outcome: any cell regressing
  by more than the threshold (default 15%) fails the gate; smaller
  regressions are reported as warnings (runner noise), improvements are
  reported as speedups.

The smoke cells run in-process, serially and cache-free, so the numbers
are pure simulation speed — the perf trajectory of the simulator hot
path, not store hits.  The ``trace_memo`` and ``sweep_throughput``
sections additionally measure the sweep machinery: actual cold-vs-warm
cell times through the runner's trace memo, and one mini-sweep run
serially and with ``--jobs 2``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from typing import Dict, List, Tuple

#: Bump when the record layout changes incompatibly; compare_records
#: refuses to diff records with different schema versions.  v4:
#: per-cell seconds are interleaved medians (previously consecutive
#: best-of), ``trace_memo`` reports measured cold-vs-warm cell times.
#: v5: an ``attrib`` section stores one latency/stall attribution
#: profile per simulated (workload, protocol, shape) — from separate
#: *non-timed* observed runs, so the timed cells stay obs-free — which
#: lets :func:`attrib_delta` name the segment that moved when a perf
#: gate trips.  v6 keyed ``sweep_throughput`` by execution backend and
#: timed an HTTP service.  v7: cells are keyed (workload, protocol,
#: tiles, engine) — the scheduler axis is gone — and
#: ``sweep_throughput`` holds one mini-sweep run serially and with
#: ``--jobs``.  v8: one execution engine, so cells are keyed
#: (workload, protocol, tiles).
SCHEMA_VERSION = 8

#: Hard-fail threshold of the regression gate: a cell whose
#: events_per_second drops by more than this fraction fails CI.
REGRESSION_THRESHOLD = 0.15

#: Basename of the committed repo-root baseline record.  write_record
#: refuses to (over)write it from a dirty working tree, so the
#: committed baseline always carries a clean, reproducible describe.
COMMITTED_BASELINE = "BENCH_sweep.json"

WORKLOAD = "radix"
PROTOCOLS = ("MESI", "DeNovo")
SCALE = "tiny"
#: The extra machine shape exercised each run (the paper's is 16).
EXTRA_TILES = 4

#: Post-hoc energy derivation must stay below this fraction of the
#: sweep's simulation wall time (it is pure arithmetic over counters).
ENERGY_OVERHEAD_BUDGET = 0.05

#: Timing rounds over the interleaved cell list; each cell keeps its
#: median.  Shared runners are noisy and simulation is deterministic,
#: so the median of interleaved rounds is the fairest cross-record
#: comparison (a quiet window helps every cell equally).
DEFAULT_REPEATS = 5


def git_describe() -> str:
    """``git describe`` of the repo this package lives in, or "unknown".

    Hardened for headless/odd environments: runs against the package's
    own directory (not whatever cwd the caller happens to be in),
    captures stderr so a missing-git or not-a-repo failure never leaks
    noise to the terminal, and degrades to ``"unknown"`` on any error
    (git absent, non-zero exit, empty output, timeout).
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False,
            stdin=subprocess.DEVNULL,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


# ----------------------------------------------------------------------
# The smoke suite
# ----------------------------------------------------------------------

def _timed_run(simulate, workload, proto, config):
    """One gc-quiesced timed simulation: ``(result, seconds)``.

    The cyclic collector is paused around the timed run — collection
    pauses triggered by unrelated garbage (trace building, earlier
    cells) would otherwise dominate the cell-to-cell noise.
    """
    import gc
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = simulate(workload, proto, config)
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return result, elapsed


def _measure_trace_memo(scale, repeats: int) -> dict:
    """Measured cold-vs-warm cell times through the runner's trace memo.

    A *cold* cell pays trace build + simulation (memo cleared first); a
    *warm* cell is a memo hit and pays simulation only — exactly what a
    sweep sees from its second cell of a (workload, shape) onwards.
    The simulation work is bit-identical either way, so every
    simulate() timing (cold or warm run) goes into one pool and the
    cell times are decomposed from the measured noise floors:
    ``warm = min(sim)``, ``cold = min(sim) + min(build)``.  Comparing
    two independently-noisy mins instead would let run-to-run jitter
    (10-25% on a shared 1-vCPU runner) swamp the few-percent build
    margin and randomly invert the reported speedup.
    """
    from repro.runner import pool as worker_pool
    from repro.runner.jobs import expand_grid

    import gc

    spec = expand_grid((WORKLOAD,), (PROTOCOLS[0],), scale)[0]
    sim_times: List[float] = []
    build_times: List[float] = []
    for _ in range(repeats):
        worker_pool._WORKLOAD_MEMO.clear()
        gc.collect()
        gc.disable()
        try:
            _result, sim_s, build_s = worker_pool._execute_timed(spec)
            sim_times.append(sim_s)
            build_times.append(build_s)
            _result, sim_s, build_s = worker_pool._execute_timed(spec)
        finally:
            gc.enable()
        assert build_s == 0.0, "second run of one spec must hit the memo"
        sim_times.append(sim_s)
    worker_pool._WORKLOAD_MEMO.clear()
    warm = min(sim_times)
    cold = warm + min(build_times)
    return {
        "cold_cell_seconds": round(cold, 4),
        "warm_cell_seconds": round(warm, 4),
        "build_seconds": round(min(build_times), 4),
        "speedup_per_memoized_cell": round(cold / warm, 2) if warm else 0.0,
    }


#: Mini-sweep shape for the sweep_throughput section.
SWEEP_WORKLOADS = ("radix", "stream")
SWEEP_JOBS = 2


def _measure_sweep_throughput(scale) -> dict:
    """Cells/second of one cache-free mini-sweep, serial and with
    :data:`SWEEP_JOBS` worker processes (a fresh pool per sweep, as
    ``repro sweep --jobs`` runs it)."""
    from repro.runner.jobs import expand_grid
    from repro.runner.pool import sweep

    specs = expand_grid(SWEEP_WORKLOADS, PROTOCOLS, scale)
    n = len(specs)
    runs = {}
    for name, jobs in (("serial", 1), ("parallel", SWEEP_JOBS)):
        t0 = time.perf_counter()
        sweep(specs, jobs=jobs, use_cache=False)
        elapsed = time.perf_counter() - t0
        runs[name] = {"seconds": round(elapsed, 4),
                      "cells_per_second": round(n / elapsed, 3)}
    return {"cells": n, "jobs": SWEEP_JOBS, **runs}


def _attrib_key(workload: str, protocol: str, tiles: int) -> str:
    return f"{workload} x {protocol} ({tiles}t)"


def _attrib_profile(workload, proto, config) -> dict:
    """Compact attribution profile from one *non-timed* observed run.

    The timed cells above stay obs-free (that gate passing unchanged is
    the zero-overhead proof); attribution comes from one extra observed
    run per simulated shape.  Its counters are simulated-behaviour
    facts — an observed run is bit-identical to an unobserved one
    (pinned by ``tests/test_attrib.py``) — so a delta between two
    records means the *simulated work* changed, not the host.
    """
    from repro.core.simulator import simulate
    from repro.obs import ObsSession

    obs = ObsSession(trace=False)
    simulate(workload, proto, config, obs=obs)
    report = obs.attrib.report()
    segments = {}
    for op, per_op in report["segments"].items():
        for name, entry in per_op.items():
            segments[f"{op}.{name}"] = entry["cycles"]
    return {
        "segments": segments,
        "stall_cycles": {cause: cycles for cause, cycles
                         in report["stalls"]["total"].items() if cycles},
        # TimeStats buckets are declared float (integral-valued); cast
        # so the JSON profile stays exact-integer like the segments.
        "compute_cycles": int(report["compute_cycles"]),
        "miss_cycles": sum(entry["cycles"]
                           for entry in report["latency"].values()),
        "misses": sum(entry["count"]
                      for entry in report["latency"].values()),
        "audits_ok": report["audits"]["ok"],
    }


def run_smoke(repeats: int = DEFAULT_REPEATS) -> dict:
    """Run the perf smoke suite and return the benchmark record.

    Every cell is timed interleaved A/B/A/B across ``repeats`` rounds
    and keeps its median.
    """
    from repro.common.config import (
        ScaleConfig, registered_energy_models, scaled_system)
    from repro.core.simulator import simulate
    from repro.energy import compute_energy
    from repro.workloads import build_workload

    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    t_build = time.perf_counter()
    workload = build_workload(WORKLOAD, scale)
    build_s = time.perf_counter() - t_build

    # The cell list: every timed (workload, proto) combination, plus
    # one non-default machine shape.
    shape_config = scaled_system(scale, num_tiles=EXTRA_TILES)
    shape_workload = build_workload(WORKLOAD, scale,
                                    num_cores=EXTRA_TILES)
    timed_cells = [(workload, proto, config) for proto in PROTOCOLS]
    timed_cells.append((shape_workload, PROTOCOLS[0], shape_config))

    # Interleaved timing: one full pass over the cell list per round,
    # so slow-machine phases hit every cell alike.
    times: List[List[float]] = [[] for _ in timed_cells]
    cell_results = [None] * len(timed_cells)
    for _round in range(repeats):
        for i, (wl, proto, cell_config) in enumerate(timed_cells):
            result, elapsed = _timed_run(simulate, wl, proto, cell_config)
            times[i].append(elapsed)
            cell_results[i] = result

    cells = []
    results = []
    for (wl, proto, cell_config), cell_times, result in zip(
            timed_cells, times, cell_results):
        elapsed = statistics.median(cell_times)
        best = min(cell_times)
        results.append((result, cell_config))
        cells.append({
            "workload": WORKLOAD,
            "protocol": proto,
            "num_tiles": cell_config.num_tiles,
            "seconds": round(elapsed, 4),
            # Best-of round: the noise floor of a deterministic cell.
            "seconds_min": round(best, 4),
            "events": result.events,
            "events_per_second": round(result.events / elapsed, 1),
            "events_per_second_best": round(result.events / best, 1),
            "exec_cycles": result.exec_cycles,
        })

    # Energy-derivation cell: price every simulated cell under every
    # registered preset, post hoc.  This must be cheap — it is the whole
    # point of a counter-driven model — so assert the budget here, where
    # CI runs it on every commit.
    presets = registered_energy_models()
    t0 = time.perf_counter()
    derivations = 0
    for cell_result, cell_config in results:
        for preset in presets:
            compute_energy(cell_result, preset, cell_config)
            derivations += 1
    energy_s = time.perf_counter() - t0

    # Attribution profiles beside the cells: one per simulated shape,
    # collected outside any timing.
    attrib = {}
    for proto in PROTOCOLS:
        attrib[_attrib_key(WORKLOAD, proto, config.num_tiles)] = (
            _attrib_profile(workload, proto, config))
    attrib[_attrib_key(WORKLOAD, PROTOCOLS[0], EXTRA_TILES)] = (
        _attrib_profile(shape_workload, PROTOCOLS[0], shape_config))

    total_s = sum(c["seconds"] for c in cells)
    overhead = energy_s / total_s if total_s else 0.0
    assert overhead < ENERGY_OVERHEAD_BUDGET, (
        f"post-hoc energy derivation took {energy_s:.4f}s = "
        f"{overhead:.1%} of the {total_s:.4f}s sweep (budget "
        f"{ENERGY_OVERHEAD_BUDGET:.0%})")
    return {
        "bench": f"sweep_{WORKLOAD}_{SCALE}",
        "schema_version": SCHEMA_VERSION,
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "trace_build_seconds": round(build_s, 4),
        "total_seconds": round(total_s, 4),
        "cells_per_second": round(len(cells) / total_s, 3),
        # Measured cold-vs-warm cell cost through the runner's trace
        # memo: what a sweep saves from its second cell of a (workload,
        # shape) onwards.
        "trace_memo": _measure_trace_memo(scale, repeats),
        # One mini-sweep, serial and with SWEEP_JOBS worker processes.
        "sweep_throughput": _measure_sweep_throughput(scale),
        # Post-hoc energy model: pure arithmetic over stored counters,
        # so derivation cost must stay a rounding error next to
        # simulation (asserted above against ENERGY_OVERHEAD_BUDGET).
        "energy_derivation": {
            "derivations": derivations,
            "presets": list(presets),
            "seconds": round(energy_s, 4),
            "fraction_of_sweep": round(overhead, 5),
            "budget": ENERGY_OVERHEAD_BUDGET,
        },
        # Latency/stall attribution per simulated shape (non-timed
        # observed runs; see _attrib_profile).  attrib_delta diffs
        # these to name which segment moved when a perf gate trips.
        "attrib": attrib,
        "cells": cells,
    }


class DirtyBaseline(Exception):
    """Refusing to stamp the committed baseline from a dirty tree."""


def write_record(record: dict, path: str) -> None:
    """Write ``record`` to ``path`` as indented JSON.

    Writing the committed repo-root baseline (``BENCH_sweep.json``) is
    refused when the record's ``git_describe`` carries a ``-dirty``
    suffix (or is unknown): a baseline CI gates every future commit
    against must come from a committed, reproducible tree.  Scratch
    outputs (any other filename) are unrestricted.
    """
    if os.path.basename(path) == COMMITTED_BASELINE:
        described = record.get("git_describe", "unknown")
        if described == "unknown" or described.endswith("-dirty"):
            raise DirtyBaseline(
                f"refusing to write {COMMITTED_BASELINE}: the record is "
                f"stamped {described!r}; commit the tree first, then "
                f"regenerate the baseline so its describe is clean")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# The compare gate
# ----------------------------------------------------------------------

class RecordMismatch(Exception):
    """Two records cannot be compared (schema/bench layout differs)."""


def _cell_key(cell: dict) -> Tuple[str, str, int]:
    return (cell["workload"], cell["protocol"], cell["num_tiles"])


def _cell_label(key: Tuple[str, str, int]) -> str:
    workload, protocol, tiles = key
    return f"{workload} x {protocol} ({tiles}t)"


def compare_records(baseline: dict, current: dict,
                    threshold: float = REGRESSION_THRESHOLD) -> dict:
    """Diff two smoke records on per-cell ``events_per_second``.

    Returns ``{"ok": bool, "lines": [str], "cells": [...]}`` where
    ``ok`` is False when any cell regressed by more than ``threshold``
    (or a baseline cell disappeared).  Raises :class:`RecordMismatch`
    when the records are not comparable (different or missing
    ``schema_version``, different bench suites).
    """
    for name, record in (("baseline", baseline), ("current", current)):
        version = record.get("schema_version")
        if version is None:
            raise RecordMismatch(
                f"{name} record has no schema_version (pre-gate record); "
                f"regenerate it with `python -m repro bench`")
        if version != SCHEMA_VERSION:
            raise RecordMismatch(
                f"{name} record has schema_version {version}, this tool "
                f"speaks {SCHEMA_VERSION}; regenerate the record")
    if baseline.get("bench") != current.get("bench"):
        raise RecordMismatch(
            f"records come from different suites "
            f"({baseline.get('bench')!r} vs {current.get('bench')!r})")

    base_cells = {_cell_key(c): c for c in baseline["cells"]}
    new_cells = {_cell_key(c): c for c in current["cells"]}
    lines: List[str] = [
        f"baseline: {baseline.get('git_describe', '?')} "
        f"({baseline.get('python', '?')})",
        f"current:  {current.get('git_describe', '?')} "
        f"({current.get('python', '?')})",
    ]
    ok = True
    compared = []
    for key, base in base_cells.items():
        workload, protocol, tiles = key
        label = _cell_label(key)
        new = new_cells.get(key)
        if new is None:
            lines.append(f"FAIL {label}: cell missing from current record")
            ok = False
            continue
        base_eps = base["events_per_second"]
        new_eps = new["events_per_second"]
        ratio = new_eps / base_eps if base_eps else 0.0
        cell = {"workload": workload, "protocol": protocol,
                "num_tiles": tiles, "baseline_eps": base_eps,
                "current_eps": new_eps, "ratio": round(ratio, 3)}
        compared.append(cell)
        detail = (f"{label}: {base_eps:,.0f} -> {new_eps:,.0f} ev/s "
                  f"({ratio:.2f}x)")
        regression = 1.0 - ratio
        if regression > threshold:
            lines.append(f"FAIL {detail} — regressed "
                         f">{threshold:.0%}")
            ok = False
        elif regression > 0:
            lines.append(f"warn {detail} — within the {threshold:.0%} "
                         f"noise band")
        else:
            lines.append(f"ok   {detail}")
    extra = set(new_cells) - set(base_cells)
    for key in sorted(extra):
        lines.append(f"note {_cell_label(key)}: new cell, no baseline")
    return {"ok": ok, "lines": lines, "cells": compared}


def _flat_buckets(profile: dict) -> Dict[str, int]:
    """One flat {bucket: cycles} view of an attribution profile."""
    flat = {f"seg {name}": int(cycles)
            for name, cycles in profile.get("segments", {}).items()}
    for cause, cycles in profile.get("stall_cycles", {}).items():
        flat[f"stall {cause}"] = int(cycles)
    flat["compute"] = int(profile.get("compute_cycles", 0))
    return flat


def attrib_delta(baseline: dict, current: dict, top: int = 3) -> dict:
    """Name which attribution buckets moved between two records.

    Diffs the per-shape ``attrib`` profiles (segment cycles, stall
    cycles by cause, compute cycles) and reports the ``top`` largest
    absolute movers per shape.  Because the profiles are simulated-
    behaviour facts — identical run-to-run on one commit — any nonzero
    delta means the *work being simulated* changed between the two
    records, while an all-zero delta pins a tripped perf gate on the
    host/runner instead.  Returns ``{"lines", "changed"}``; tolerant of
    pre-v5 records (reports the absence instead of raising).
    """
    base_attrib = baseline.get("attrib")
    new_attrib = current.get("attrib")
    if not base_attrib or not new_attrib:
        which = "baseline" if not base_attrib else "current"
        return {"changed": False, "lines": [
            f"note {which} record carries no attribution profiles "
            f"(pre-v5); cannot attribute the regression"]}
    lines: List[str] = []
    changed = False
    for key in sorted(set(base_attrib) | set(new_attrib)):
        base = base_attrib.get(key)
        new = new_attrib.get(key)
        if base is None or new is None:
            lines.append(f"note {key}: profile only in "
                         f"{'current' if base is None else 'baseline'} "
                         f"record")
            continue
        base_flat = _flat_buckets(base)
        new_flat = _flat_buckets(new)
        deltas = []
        for bucket in set(base_flat) | set(new_flat):
            before = base_flat.get(bucket, 0)
            after = new_flat.get(bucket, 0)
            if after != before:
                deltas.append((abs(after - before), bucket, before, after))
        if not deltas:
            lines.append(f"ok   {key}: attribution unchanged")
            continue
        changed = True
        deltas.sort(reverse=True)
        movers = []
        for _, bucket, before, after in deltas[:top]:
            pct = (f"{(after - before) / before:+.1%}" if before
                   else "new")
            movers.append(f"{bucket} {before:,} -> {after:,} ({pct})")
        lines.append(f"moved {key}: " + "; ".join(movers))
    if changed:
        lines.append("note attribution moved: the simulated work "
                     "changed, not just the host")
    else:
        lines.append("note attribution identical: a tripped perf gate "
                     "is host/runner-side, not a workload change")
    return {"changed": changed, "lines": lines}


def load_record(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
