"""Repository benchmark: end-to-end host time, and a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_tiny_cold --seed 1 \\
        --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``grid_tiny_cold`` -- ``repro sweep --scale tiny`` of the 54-cell
  paper grid into an empty store, then ``repro report`` over it;
* ``ladder_small`` -- in-process ``simulate()`` of radix at the default
  small scale under MESI, DeNovo and DBypFull;
* ``stalls_tiny`` -- ``repro stalls --scale tiny --workload radix``,
  nine rungs with observation attached.

Every pass runs in fresh interpreters (``child.py``).  With ``--trace 0``
a run makes ``--seconds`` / :data:`PASS_S` passes (at least one), and
the end-to-end metrics are medians over passes: the CPU time of the
processes that did the work, in seconds at a reference host speed.
Probes of the host's speed run inside the timed work (``speed.py``),
and every interval is scaled by them.
With ``--trace 1`` one pass runs with the layer entry points timed, and
part of the workload runs again under cProfile
for the per-layer split.  Every simulated cell is checked (golden grid,
pinned digests, repeat digests, a traffic conservation identity); a
cell that fails a check counts as a failed operation.  The last line
of standard output is the JSON result.  Exact per-cell counts go to the
ledger ``.bench_build/perfbench/ledger.jsonl``, beside the cell times.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "grid_tiny.json"
PINS = HERE / "pins.json"
WORK = ROOT / ".bench_build" / "perfbench"
LEDGER = WORK / "ledger.jsonl"

sys.path.insert(0, str(HERE))
from child import LADDER, STALLS_WORKLOAD, digest  # noqa: E402
from layers import LAYERS, merge  # noqa: E402
from speed import Speed  # noqa: E402

WORKLOADS = ("grid_tiny_cold", "ladder_small", "stalls_tiny")
#: Cells in one pass of each workload.
CELLS = {"grid_tiny_cold": 54, "ladder_small": len(LADDER),
         "stalls_tiny": 9}
#: Nominal seconds of one pass.  The pass count of a run follows from
#: ``--seconds`` alone, never from how fast the host ran, so every run
#: of one setting takes the same medians over the same cells.
PASS_S = {"grid_tiny_cold": 30.0, "ladder_small": 30.0, "stalls_tiny": 10.0}
#: Kernels of the tiny grid swept again under cProfile and by the
#: ``--jobs 2`` pool: half the grid, every rung of each, so the rung mix
#: (and with it the Bloom construction share) stays that of the grid.
GRID_TRACE_ROWS = ("LU", "radix", "kD-tree")
SETUP_PROBES = 11
#: Report or render processes in one run, shared among its passes.
REPORT_REPEATS = 11
#: A run must end within 180 s; no child outlives this.
RUN_DEADLINE_S = 170.0
#: ``PYTHONHASHSEED`` of every child (see ``child.py``).
HASH_SEED = "0"

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cells_per_s": "cells/s",
    "cell_p50_s": "s", "cell_p80_s": "s", "report_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_METRICS = {
    "engine.events": "count", "engine.us_per_event": "us",
    "core.construct_s": "s",
    "coherence.nacks": "count", "coherence.registrations": "count",
    "cache.l1_probes": "count", "cache.l2_probes": "count",
    "waste.l1_used_ratio": "ratio",
    "bloom.construct_s": "s", "bloom.bypass_ratio": "ratio",
    "network.flit_hops": "count", "network.packets": "count",
    "dram.accesses": "count", "dram.row_hit_ratio": "ratio",
    "workloads.build_s": "s",
    "runner.store_write_s": "s", "runner.store_read_s": "s",
    "runner.retries": "count", "runner.pool_jobs2_wall_s": "s",
    "analysis.render_s": "s", "analysis.headline_err_pp": "pp",
    "obs.overhead_ratio": "ratio", "trace.overhead_ratio": "ratio",
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = "s"
    LAYER_METRICS[f"{_layer}.share"] = "ratio"
    LAYER_METRICS[f"{_layer}.calls"] = "count"


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its work directory, deadline, and the cell
    operations it attempted and saw fail."""

    def __init__(self, workload: str, seed: int, default_seed,
                 metered: bool) -> None:
        self.workload = workload
        self.seed = seed
        #: Children of a metered run probe the host's speed.
        self.metered = metered
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        WORK.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self._ids = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.reasons = []           # (label, reason)
        self.ledger = []            # every checked cell of this run
        self._seen = {}             # label -> first (digest, profile digest)
        self.expected = expected_digests(workload, seed == default_seed)

    def spawn(self, phase: str, **args) -> dict:
        """Run one child phase in a fresh interpreter.  The record's
        times read the child's CPU clock; it gains ``wall_clock_s``, the
        real time the parent waited for the child, and in a metered run
        ``speed`` and ``loop_speed``, the child's :class:`Speed` by the
        whole probe and by its loop."""
        out = self.work / f"{phase}-{next(self._ids)}.json"
        args.update(out=str(out), seed=self.seed, meter=self.metered)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        env["PYTHONHASHSEED"] = HASH_SEED
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed(f"{phase}: no time left in the run")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), phase,
                 json.dumps(args)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{phase}: timed out after {timeout:.0f}s")
        if proc.returncode != 0:
            raise ChildFailed(f"{phase}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-1500:]}")
        record = json.loads(out.read_text())
        record["wall_clock_s"] = time.perf_counter() - start
        record["stdout"] = proc.stdout
        if self.metered:
            record["speed"] = Speed(record["probes"])
            record["loop_speed"] = Speed(record["probes"], loop_only=True)
        return record

    def store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.work)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- correctness ------------------------------------------------------
    def fail(self, label: str, reason: str) -> None:
        """One failed operation."""
        self.failed += 1
        self.reasons.append((label, reason))

    def check(self, cells: list, expected_count: int, what: str) -> None:
        """Count and check one batch of cell operations."""
        self.attempted += expected_count
        for _missing in range(expected_count - len(cells)):
            self.fail(what, "cell did not complete")
        for cell in cells[:expected_count]:
            reasons = self._cell_problems(cell)
            if reasons:
                self.failed += 1
                self.reasons += [(cell["label"], f"{what}: {r}")
                                 for r in reasons]
            self.ledger.append({k: cell.get(k) for k in (
                "label", "digest", "profile_digest", "counts", "seconds")})

    def _cell_problems(self, cell: dict) -> list:
        problems = []
        counts = cell["counts"]
        hops = counts["flit_hops"]
        if abs(counts["traffic_flit_hops"] - hops) > 1e-6 * max(1, hops):
            problems.append(f"traffic buckets sum to "
                            f"{counts['traffic_flit_hops']} flit-hops, the "
                            f"network counted {hops}")
        expected = self.expected.get(cell["label"], {})
        if expected.get("result") not in (None, cell["digest"]):
            problems.append("result differs from the reference")
        profile = cell.get("profile_digest")
        if profile is not None and expected.get("profile") not in (None,
                                                                   profile):
            problems.append("stall profile differs from the pinned digest")
        if cell.get("audits_ok") is False:
            problems.append("conservation audit failed")
        key = (cell["digest"], cell.get("profile_digest"))
        first = self._seen.setdefault(cell["label"], key)
        if key[0] != first[0] or (None not in (key[1], first[1])
                                  and key[1] != first[1]):
            problems.append("differs from an earlier repeat in this run")
        return problems

    def check_same(self, cells: list, what: str) -> None:
        """Cells read back another way must be bit-identical to the
        cells checked before."""
        for cell in cells:
            first = self._seen.get(cell["label"])
            if first is None or first[0] != cell["digest"]:
                self.fail(cell["label"], f"{what}: result differs from "
                          f"the pass")

    def check_renders(self, renders: list) -> None:
        """Every render of a run must print the same text."""
        for render in renders:
            first = self._seen.setdefault("render", (render["digest"], None))
            if render["rc"] != 0 or render["digest"] != first[0]:
                self.fail("render", "output differs from an earlier render")

    def check_ledger(self, source: str) -> None:
        """Cells must match earlier runs of the same source and seed."""
        earlier = {}
        if LEDGER.exists():
            for line in LEDGER.read_text().splitlines():
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if (entry.get("workload"), entry.get("seed"),
                        entry.get("source")) == (self.workload, self.seed,
                                                 source):
                    for cell in entry.get("cells", ()):
                        earlier.setdefault(cell["label"], cell)
        for cell in self.ledger:
            before = earlier.get(cell["label"])
            if before is not None and (
                    before["digest"] != cell["digest"]
                    or before.get("counts") != cell["counts"]):
                self.fail(cell["label"], "exact counts drifted from an "
                          "earlier run of the same source and seed")

    def append_ledger(self, source: str, env: dict, trace: int) -> None:
        entry = {"workload": self.workload, "seed": self.seed,
                 "trace": trace, "source": source, "env": env,
                 "cells": self.ledger}
        with open(LEDGER, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def expected_digests(workload: str, default_seed: bool) -> dict:
    """Reference digests per cell label, at the default seed only: the
    golden grid for grid results, pins for the rest."""
    if not default_seed:
        return {}
    golden = json.loads(GOLDEN.read_text())["grid"]
    pins = json.loads(PINS.read_text())
    if workload == "grid_tiny_cold":
        return {f"{w}/{p}": {"result": digest(cell)}
                for w, cells in golden.items() for p, cell in cells.items()}
    if workload == "stalls_tiny":
        # Observation leaves results bit-identical, so the observed rungs
        # must reproduce the golden radix cells too.
        return {f"{STALLS_WORKLOAD}/{p}": {
                    "result": digest(cell),
                    "profile": pins["stalls_tiny"][f"{STALLS_WORKLOAD}/{p}"]}
                for p, cell in golden[STALLS_WORKLOAD].items()}
    return {label: {"result": value}
            for label, value in pins[workload].items()}


# ----------------------------------------------------------------------
# One pass of each workload
# ----------------------------------------------------------------------

def _cpu(record: dict) -> float:
    """CPU seconds of a child, from its first statement to its last
    result."""
    return record["t_done"] - record["t_start"]


def _sim_s(record: dict) -> float:
    start, end = record["sim_phase"]
    return end - start


def grid_pass(run: Run, trace: bool = False,
              reports: int = REPORT_REPEATS) -> dict:
    store = run.store()
    args = {"store": store, "spans": trace}
    if trace:
        args.update(trace_rows=list(GRID_TRACE_ROWS),
                    trace_store=run.store())
    sweep = run.spawn("grid_sweep", **args)
    if sweep["rc"] != 0:
        raise ChildFailed(f"repro sweep exited {sweep['rc']}")
    run.check(sweep["cells"], CELLS[run.workload], "sweep")
    if trace:
        reports = [run.spawn("grid_report", store=store, spans=True),
                   run.spawn("grid_report", store=store, profile=True)]
    else:
        reports = [run.spawn("grid_report", store=store)
                   for _ in range(reports)]
    for report in reports:
        _check_report(run, report)
    return {"main": sweep, "reports": reports, "cells": sweep["cells"],
            "rss_mb": max([sweep["rss_mb"]] + [r["rss_mb"] for r in reports])}


def _check_report(run: Run, report: dict) -> None:
    """The report must exit 0, print the headline table, and serve
    every cell from the store exactly as the sweep wrote it."""
    if report["rc"] != 0 or "## Headline comparison" not in report["stdout"]:
        run.fail("report", "repro report failed or printed no headline "
                 "table")
    if len(report["cells"]) != CELLS[run.workload]:
        run.fail("report", f"report read {len(report['cells'])} cells")
    for cell in report["cells"]:
        if not cell["cached"]:
            run.fail(cell["label"], "report re-simulated a stored cell")
    run.check_same(report["cells"], "store read-back")


def ladder_pass(run: Run, trace: bool = False,
                reports: int = REPORT_REPEATS) -> dict:
    results = run.work / "ladder-results.json"
    record = run.spawn("ladder", spans=trace, trace=trace,
                       results=str(results))
    run.check(record["cells"], CELLS[run.workload], "ladder")
    return _single_pass(run, record, "ladder", results,
                        0 if trace else reports)


def stalls_pass(run: Run, trace: bool = False,
                reports: int = REPORT_REPEATS) -> dict:
    results = run.work / "stalls.json"
    record = run.spawn("stalls", json=str(results),
                       trace_json=str(run.work / "stalls-traced.json"),
                       spans=trace, trace=trace)
    run.check(record["cells"], CELLS[run.workload], "stalls")
    if record["rc"] != 0 and all(c["audits_ok"] for c in record["cells"]):
        run.fail("stalls", f"repro stalls exited {record['rc']}")
    return _single_pass(run, record, "stalls", results,
                        0 if trace else reports)


def _single_pass(run: Run, record: dict, kind: str, results: Path,
                 reports: int) -> dict:
    """A ladder or stalls pass; its saved results are also rendered in
    ``reports`` fresh interpreters, for ``report_s``."""
    renders = [run.spawn("render", kind=kind, results=str(results))
               for _ in range(reports)]
    run.check_renders(renders)
    return {"main": record, "renders": renders, "cells": record["cells"],
            "rss_mb": max([record["rss_mb"]] + [r["rss_mb"]
                                                for r in renders])}


PASSES = {"grid_tiny_cold": grid_pass, "ladder_small": ladder_pass,
          "stalls_tiny": stalls_pass}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def compile_sources() -> None:
    """Byte-compile the sources once, so no timed interpreter pays it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "repro"), str(HERE)], cwd=ROOT,
                   capture_output=True, timeout=120)


def setup_times(run: Run) -> list:
    """Scaled CPU seconds from a fresh interpreter's first statement to
    an imported, ready CLI: import work, scaled by the probe's loop."""
    run.spawn("probe")          # warms the file cache; not counted
    return [r["loop_speed"].scaled(r["t_start"], r["t_ready"])
            for r in (run.spawn("probe") for _ in range(SETUP_PROBES))]


def _process_s(record: dict, speed: str = "speed") -> float:
    """A child's scaled CPU seconds from its first statement to its last
    result."""
    return record[speed].scaled(record["t_start"], record["t_done"])


def pass_figures(one: dict) -> dict:
    """One pass's end-to-end figures, in seconds at the reference speed.
    Reports, like set-up, are imports and rendering: short work on
    little data, scaled by the probe's loop alone.  The grid's wall time
    is its sweep process plus its median report; the ladder and stalls
    render within their own process."""
    main = one["main"]
    speed = main["speed"]
    reports = [_process_s(r, "loop_speed")
               for r in one.get("reports") or one["renders"]]
    wall = _process_s(main)
    if "reports" in one:
        wall += statistics.median(reports)
    return {"wall_s": wall, "reports_s": reports,
            "cells_per_s": len(main["cells"]) / speed.scaled(
                *main["sim_phase"]),
            "cell_s": {c["label"]: speed.scaled(*c["span"])
                       for c in main["cells"]}}


def end_to_end(run: Run, seconds: float):
    setups = setup_times(run)
    passes = []
    count = max(1, round(seconds / PASS_S[run.workload]))
    for _ in range(count):
        start = time.perf_counter()
        passes.append(PASSES[run.workload](
            run, reports=math.ceil(REPORT_REPEATS / count)))
        if time.perf_counter() + 2 * (time.perf_counter() - start) \
                > run.deadline:
            break
    figures = [pass_figures(p) for p in passes]
    # A cell's time is the median of its repeats; the percentiles are
    # over cells, so they do not depend on the pass count.
    repeats = {}
    for figure in figures:
        for label, cell_s in figure["cell_s"].items():
            repeats.setdefault(label, []).append(cell_s)
    samples = [statistics.median(times) for times in repeats.values()]
    return {
        "wall_s": statistics.median(f["wall_s"] for f in figures),
        "setup_s": statistics.median(setups),
        "cells_per_s": statistics.median(f["cells_per_s"] for f in figures),
        "cell_p50_s": statistics.median(samples),
        "cell_p80_s": statistics.quantiles(samples, n=5,
                                           method="inclusive")[3],
        "report_s": statistics.median(
            itertools.chain.from_iterable(f["reports_s"] for f in figures)),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }, {"passes": len(passes), "cell samples": len(samples),
        "unscaled wall_s": statistics.median(
            _unscaled(p, _cpu) for p in passes),
        "real wall_s": statistics.median(
            _unscaled(p, lambda r: r["wall_clock_s"]) for p in passes)}


def _unscaled(one: dict, seconds) -> float:
    """A pass's wall time as ``seconds`` of each child gives it."""
    total = seconds(one["main"])
    if "reports" in one:
        total += statistics.median(seconds(r) for r in one["reports"])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run):
    """One pass with layer entry points timed, plus cProfile over part
    of the workload.  Metrics of layers a workload does not run read 0."""
    one = PASSES[run.workload](run, trace=True)
    cells = one["cells"]
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    spans = {}
    if run.workload == "grid_tiny_cold":
        sweep, reports = one["main"], one["reports"]
        for record in (sweep, reports[0]):
            for key, value in record.get("spans", {}).items():
                spans[key] = spans.get(key, 0.0) + value
        traced = sweep["traced"]
        run.check(traced["cells"], 9 * len(GRID_TRACE_ROWS), "traced sweep")
        folds = [traced["layers"], reports[1]["traced"]["layers"]]
        untraced = _rows_seconds(sweep, GRID_TRACE_ROWS) + _cpu(reports[0])
        metrics["trace.overhead_ratio"] = _ratio(
            traced["seconds"] + _cpu(reports[1]), untraced)
        metrics["runner.retries"] = sum(c["attempts"] - 1 for c in cells
                                        if not c["cached"])
        metrics["analysis.headline_err_pp"] = reports[0]["headline_err_pp"]
        pool = run.spawn("grid_sweep", store=run.store(), jobs=2,
                         rows=list(GRID_TRACE_ROWS))
        run.check(pool["cells"], 9 * len(GRID_TRACE_ROWS), "--jobs 2 sweep")
        # The pool's work runs in its worker processes: real time.
        metrics["runner.pool_jobs2_wall_s"] = pool["wall_clock_s"]
    else:
        record = one["main"]
        spans = dict(record.get("spans", {}))
        traced = record["traced"]
        run.check(traced["cells"], 1 if run.workload == "ladder_small"
                  else CELLS[run.workload], "traced")
        folds = [traced["layers"]]
        metrics["trace.overhead_ratio"] = _ratio(traced["seconds"],
                                                 traced["untraced_s"])
        if run.workload == "stalls_tiny":
            metrics["obs.overhead_ratio"] = _ratio(_sim_s(record),
                                                   record["unobserved_s"])
    for key in ("core.construct_s", "bloom.construct_s", "workloads.build_s",
                "runner.store_write_s", "runner.store_read_s",
                "analysis.render_s"):
        metrics[key] = spans.get(key, 0.0)
    counts = _sum_counts(cells)
    run_s = sum(c["seconds"] for c in cells) - spans.get(
        "core.construct_s", 0.0)
    metrics.update({
        "engine.events": counts["events"],
        "engine.us_per_event": 1e6 * _ratio(run_s, counts["events"]),
        "coherence.nacks": counts["nacks"],
        "coherence.registrations": counts["registrations"],
        "cache.l1_probes": counts["l1_probes"],
        "cache.l2_probes": counts["l2_probes"],
        "waste.l1_used_ratio": _ratio(counts["l1_used"], counts["l1_words"]),
        "bloom.bypass_ratio": _ratio(counts["direct_requests"],
                                     counts["bypass_queries"]),
        "network.flit_hops": counts["flit_hops"],
        "network.packets": counts["packets"],
        "dram.accesses": counts["dram_accesses"],
        "dram.row_hit_ratio": _ratio(
            counts["dram_row_hits"],
            counts["dram_row_hits"] + counts["dram_row_misses"]),
    })
    folded = merge(folds)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = folded["self_s"][layer]
        metrics[f"{layer}.share"] = _ratio(folded["self_s"][layer],
                                           folded["total_s"])
        metrics[f"{layer}.calls"] = folded["calls"][layer]
    share_sum = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    if abs(share_sum - 1.0) > 1e-9:
        run.fail("trace", f"layer shares sum to {share_sum}, not 1")
    return metrics, {"traced seconds": traced["seconds"],
                     "traced total self seconds": folded["total_s"]}


def _rows_seconds(sweep: dict, rows) -> float:
    """Untraced sweep time of some rows, from the cells' completion
    times (cells complete row by row)."""
    total, previous = 0.0, sweep["sim_phase"][0]
    for cell in sweep["cells"]:
        if cell["row"] in rows:
            total += cell["stamp"] - previous
        previous = cell["stamp"]
    return total


def _sum_counts(cells: list) -> dict:
    keys = ("events", "nacks", "registrations", "l1_probes", "l2_probes",
            "flit_hops", "packets", "dram_accesses", "dram_row_hits",
            "dram_row_misses", "bypass_queries", "direct_requests")
    total = dict.fromkeys(keys, 0)
    total["l1_used"] = total["l1_words"] = 0
    for cell in cells:
        counts = cell["counts"]
        for key in keys:
            total[key] += counts[key]
        total["l1_used"] += counts["l1_waste"].get("used", 0)
        total["l1_words"] += sum(counts["l1_waste"].values())
    return total


# ----------------------------------------------------------------------
# Environment and entry point
# ----------------------------------------------------------------------

def source_digest() -> str:
    """Hash of every source file: names the code a ledger entry ran."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(SRC)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return proc.stdout.strip() or "n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="trace-generator seed (default: the "
                             "generators' DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not ((SRC / "repro" / "__init__.py").is_file() and GOLDEN.is_file()
            and PINS.is_file()):
        print(f"perfbench: needs the simulator under {SRC}, the golden grid "
              f"{GOLDEN} and {PINS}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.runner.jobs import DEFAULT_SEED
    seed = DEFAULT_SEED if ns.seed is None else ns.seed
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "git_describe": git_describe(),
           "loadavg_1m_before": os.getloadavg()[0]}
    source = source_digest()
    compile_sources()
    run = Run(ns.workload, seed, DEFAULT_SEED, metered=not ns.trace)
    try:
        if ns.trace:
            metrics, notes = per_layer(run)
            units = LAYER_METRICS
        else:
            metrics, notes = end_to_end(run, ns.seconds)
            units = END_TO_END
        run.check_ledger(source)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    env["loadavg_1m_after"] = os.getloadavg()[0]
    run.append_ledger(source, env, ns.trace)

    print(f"perfbench: workload={ns.workload} seed={seed} trace={ns.trace} "
          f"source={source}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:<28s} {metrics[name]:>16.6g} {unit}")
    print("  " + ", ".join(f"{k}: {v:.6g}" for k, v in notes.items()))
    for label, reason in run.reasons[:20]:
        print(f"FAIL {label}: {reason}")
    print(f"ledger: {LEDGER.relative_to(ROOT)}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": min(run.failed, run.attempted),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
