"""``python -m repro`` — drive sweeps and the report from a shell.

Subcommands::

    python -m repro list
    python -m repro sweep  --workloads radix --protocols MESI DeNovo --jobs 8
    python -m repro sweep  --tiles 4,16,64 --scale tiny
    python -m repro report
    python -m repro report --figures 5.1a 5.2 --preset 22nm
    python -m repro report --tiles 4,16,64 --workloads radix
    python -m repro trace  --workload fft -o trace.json
    python -m repro stalls --workload radix
    python -m repro clean-cache

``list`` prints every workload and protocol rung (including
beyond-paper rungs like ``MDirtyWB``/``DWordHybrid``).  ``sweep`` and
``report`` share the same selection flags
(``--workloads/--protocols/--scale/--seed/--tiles``), the parallelism
flag (``--jobs``, 0 = one per CPU) and cache controls (``--cache-dir``,
``--fresh``).  ``sweep`` prints one progress line per completed cell
over every ``--tiles`` shape.  ``report`` renders the paper-vs-measured
report from the result store, simulating only missing cells: the body
describes the first ``--tiles`` shape, and two or more shapes append
the core-count scaling figure over all of them.  ``--figures`` limits
the paper-figure sections and ``--preset`` the energy section to one
technology preset.  A misspelled ``--protocols`` or ``--preset`` entry
reports near-miss suggestions.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Tuple

from repro.common.config import (
    ENERGY_MODELS, PROTOCOL_ORDER, PROTOCOLS, ScaleConfig, energy_model,
    protocol as protocol_by_name, scaled_system)
from repro.runner.jobs import DEFAULT_SEED, expand_grid
from repro.runner.pool import JobOutcome, sweep, sweep_grid, sweep_shapes
from repro.runner.store import ResultStore
from repro.workloads import GENERATORS, WORKLOAD_ORDER, canonical_workload

SCALES = {
    "tiny": ScaleConfig.tiny,
    "small": ScaleConfig,
    "paper": ScaleConfig.paper,
}

def _resolve_jobs(jobs: int) -> int:
    """``--jobs`` as a worker count: 0 means one per CPU."""
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _make_store(ns: argparse.Namespace) -> ResultStore:
    return ResultStore(ns.cache_dir) if ns.cache_dir else ResultStore()


def _parse_tiles(ns: argparse.Namespace) -> Optional[Tuple[int, ...]]:
    """The --tiles axis as ints (accepts ``4,16`` and ``4 16`` forms)."""
    raw = getattr(ns, "tiles", None)
    if not raw:
        return None
    values = []
    for chunk in raw:
        for part in chunk.split(","):
            part = part.strip()
            if part:
                values.append(int(part))
    return tuple(values) or None


def _progress_printer(out, clock=time.perf_counter):
    """A ``ProgressFn`` printing one line per completed cell, with an
    ETA from the mean wall time per cell so far (which absorbs cache
    hits and parallelism without modelling either)."""
    start = clock()

    def progress(outcome: JobOutcome, done: int, total: int) -> None:
        spec = outcome.spec
        retried = (f"  (attempt {outcome.attempts})"
                   if outcome.attempts > 1 else "")
        remaining = total - done
        eta = (f"  eta {(clock() - start) / done * remaining:.1f}s"
               if remaining > 0 else "")
        print(f"[{done:3d}/{total}] {spec.workload:<14s} "
              f"{spec.protocol:<12s} {spec.num_tiles:3d}t "
              f"{outcome.status()}{retried}{eta}",
              file=out, flush=True)
    return progress


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_sweep(ns: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    jobs = _resolve_jobs(ns.jobs)
    workloads = tuple(ns.workloads) if ns.workloads else WORKLOAD_ORDER
    protocols = tuple(ns.protocols) if ns.protocols else PROTOCOL_ORDER
    tiles = _parse_tiles(ns)
    scale = SCALES[ns.scale]()
    specs = expand_grid(workloads, protocols, scale,
                        config=scaled_system(scale),
                        seed=ns.seed, tiles=tiles)
    shapes = (f" x {len(tiles)} shapes ({','.join(map(str, tiles))} tiles)"
              if tiles else "")
    print(f"sweep: {len(workloads)} workloads x {len(protocols)} protocols"
          f"{shapes} = {len(specs)} cells, scale={ns.scale}, jobs={jobs}",
          file=out, flush=True)
    store = _make_store(ns)
    start = time.perf_counter()
    sweep(specs, jobs=jobs, store=store, use_cache=not ns.fresh,
          progress=_progress_printer(out))
    elapsed = time.perf_counter() - start
    print(f"sweep: {len(specs)} cells in {elapsed:.2f}s "
          f"(results in {store.directory})", file=out, flush=True)
    return 0


def cmd_report(ns: argparse.Namespace, out=None) -> int:
    """Render the report over the (cached) grid of the first shape,
    plus the scaling figure when ``--tiles`` names several."""
    out = out if out is not None else sys.stdout
    from repro.analysis import report
    scale = SCALES[ns.scale]()
    tiles = _parse_tiles(ns)
    config = scaled_system(scale, num_tiles=tiles[0] if tiles else None)
    selection = dict(
        workloads=ns.workloads, protocols=ns.protocols, scale=scale,
        seed=ns.seed, jobs=_resolve_jobs(ns.jobs), store=_make_store(ns),
        use_cache=not ns.fresh, progress=_progress_printer(sys.stderr))
    shapes = None
    if tiles and len(tiles) > 1:
        shapes = sweep_shapes(tiles, config=scaled_system(scale),
                              **selection)
        grid = shapes[tiles[0]]
    else:
        grid = sweep_grid(config=config, **selection)
    print(report.generate(grid, config=config, scale=scale,
                          figures=ns.figures, preset=ns.preset,
                          shapes=shapes), file=out)
    return 0


def _canonical_protocol(name: str) -> str:
    """Resolve a case-insensitive protocol name to its table key.

    ``--protocol denovo`` should work like ``--workload fft`` does;
    exact-case lookups (and their near-miss suggestions) stay with
    :func:`repro.common.config.protocol`.
    """
    canonical = {n.lower(): n for n in PROTOCOLS}
    key = canonical.get(name.lower())
    if key is not None:
        return key
    protocol_by_name(name)     # raises KeyError with suggestions
    return name


def cmd_trace(ns: argparse.Namespace, out=None) -> int:
    """Run one observed cell; export the Chrome trace JSON."""
    out = out if out is not None else sys.stdout
    from repro.core.simulator import simulate
    from repro.obs import ObsSession
    from repro.workloads import build_workload
    scale = SCALES[ns.scale]()
    tiles = _parse_tiles(ns)
    config = scaled_system(scale, num_tiles=tiles[0] if tiles else None)
    workload = build_workload(ns.workload, scale,
                              num_cores=config.num_tiles, seed=ns.seed)
    protocol = _canonical_protocol(ns.protocol)
    obs = ObsSession(sample_interval=ns.sample_interval,
                     trace_capacity=ns.trace_capacity)
    start = time.perf_counter()
    result = simulate(workload, protocol, config, obs=obs)
    elapsed = time.perf_counter() - start
    obs.export(ns.out)
    trace = obs.trace
    print(f"trace: {workload.name} / {protocol} @ {config.num_tiles}t, "
          f"{result.exec_cycles} cycles in {elapsed:.2f}s", file=out,
          flush=True)
    print(f"trace: {len(trace.events())} span/instant events "
          f"({trace.dropped} dropped by the ring buffer), "
          f"{len(obs.samples)} metric samples -> {ns.out}", file=out,
          flush=True)
    if trace.dropped > 0:
        print(f"trace: warning: ring buffer dropped {trace.dropped} "
              f"event(s); re-run with --trace-capacity "
              f"{max(trace.capacity * 2, trace.capacity + trace.dropped)} "
              f"(or higher) for a complete trace", file=sys.stderr,
              flush=True)
    print("trace: load in https://ui.perfetto.dev or chrome://tracing",
          file=out, flush=True)
    if ns.timeline:
        from repro.analysis.timeline import figure_timeline
        print(file=out)
        print(figure_timeline(obs).render(), file=out, flush=True)
    return 0


def cmd_stalls(ns: argparse.Namespace, out=None) -> int:
    """Run one observed cell per rung; print the stall attribution."""
    out = out if out is not None else sys.stdout
    from repro.analysis.stalls import (
        collect_stall_profiles, figure_stalls, report_section)
    scale = SCALES[ns.scale]()
    tiles = _parse_tiles(ns)
    config = scaled_system(scale, num_tiles=tiles[0] if tiles else None)
    protocols = [_canonical_protocol(p)
                 for p in (ns.protocols or PROTOCOL_ORDER)]
    start = time.perf_counter()
    profiles = collect_stall_profiles(ns.workload, scale, protocols,
                                      config, seed=ns.seed)
    elapsed = time.perf_counter() - start
    if ns.report_section:
        print(report_section(profiles, config.num_tiles), file=out)
    else:
        print(figure_stalls(profiles, config.num_tiles).render(), file=out)
    print(f"stalls: {len(profiles)} rung(s) of {ns.workload} @ "
          f"{config.num_tiles}t in {elapsed:.2f}s", file=out, flush=True)
    if ns.json:
        import json
        payload = {"workload": profiles[0]["workload"] if profiles
                   else ns.workload,
                   "num_tiles": config.num_tiles,
                   "seed": ns.seed,
                   "profiles": profiles}
        with open(ns.json, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"stalls: wrote {ns.json}", file=out, flush=True)
    failed = [p["protocol"] for p in profiles if not p["audits"]["ok"]]
    if failed:
        print(f"stalls: conservation audits FAILED for "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_list(ns: argparse.Namespace, out=None) -> int:
    """Print every workload and protocol rung."""
    out = out if out is not None else sys.stdout
    print("workloads:", file=out)
    paper_workloads = set(WORKLOAD_ORDER)
    ordered = list(WORKLOAD_ORDER) + sorted(
        set(GENERATORS) - paper_workloads)
    for name in ordered:
        tag = "paper" if name in paper_workloads else "extra"
        print(f"  {name:<14s} {tag}", file=out)
    print("protocols:", file=out)
    for name, proto in PROTOCOLS.items():
        tag = "paper-ladder" if name in PROTOCOL_ORDER else "extra"
        flags = ", ".join(proto.enabled_flags()) or "-"
        print(f"  {name:<12s} {proto.kind:<7s} {tag:<13s} {flags}",
              file=out)
    return 0


def cmd_clean_cache(ns: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    store = _make_store(ns)
    removed = store.clear()
    print(f"removed {removed} cached result(s) from {store.directory}",
          file=out)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel sweep runner for the traffic-waste "
                    "reproduction (workload x protocol grids).")
    sub = parser.add_subparsers(dest="command", required=True)

    grid_flags = argparse.ArgumentParser(add_help=False)
    grid_flags.add_argument(
        "--workloads", nargs="+", metavar="W",
        help=f"workloads to sweep (default: paper order; "
             f"known: {', '.join(sorted(GENERATORS))})")
    grid_flags.add_argument(
        "--protocols", nargs="+", metavar="P",
        help="protocol configurations (default: the paper's nine-rung "
             "ladder; see `python -m repro list` for every rung)")
    grid_flags.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="input-size scale (default: small)")
    grid_flags.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"trace-generator seed (default: {DEFAULT_SEED})")
    grid_flags.add_argument(
        "--tiles", nargs="+", metavar="N",
        help="machine-shape axis: tile counts as comma- or "
             "space-separated square numbers, e.g. `--tiles 4,16,64` "
             "(default: the paper's 16-tile 4x4 mesh; sweep simulates "
             "every shape, report renders the first shape and appends "
             "the core-count scaling figure over all of them)")
    grid_flags.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes; 0 = one per CPU (default: 1)")
    grid_flags.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-store directory (default: $REPRO_CACHE_DIR "
             "or ./.repro_cache)")
    grid_flags.add_argument(
        "--fresh", action="store_true",
        help="ignore and do not update the on-disk result store")

    p = sub.add_parser("sweep", parents=[grid_flags],
                       help="simulate the grid and persist results")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "report", parents=[grid_flags],
        help="print the paper-vs-measured report from the (cached) grid")
    from repro.analysis.figures import ALL_FIGURES
    p.add_argument("--figures", nargs="+", choices=list(ALL_FIGURES),
                   metavar="FIG",
                   help=f"paper figures to render (default: all; known: "
                        f"{', '.join(ALL_FIGURES)})")
    p.add_argument(
        "--preset", metavar="NAME",
        help=f"technology preset of the energy section (default: all; "
             f"known: {', '.join(ENERGY_MODELS)})")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "trace",
        help="run one observed cell and export a Chrome trace-event "
             "JSON (loads in Perfetto / chrome://tracing)")
    p.add_argument("--workload", default="FFT", metavar="W",
                   help="workload to trace (case-insensitive; "
                        "default: FFT)")
    p.add_argument("--protocol", default="DeNovo", metavar="P",
                   help="protocol rung (case-insensitive; "
                        "default: DeNovo)")
    p.add_argument("--scale", choices=sorted(SCALES), default="tiny",
                   help="input-size scale (default: tiny — traces of "
                        "bigger scales get large)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"trace-generator seed (default: {DEFAULT_SEED})")
    p.add_argument("--tiles", nargs="+", metavar="N",
                   help="machine shape (one square tile count; "
                        "default: the paper's 16)")
    p.add_argument("--sample-interval", type=int, default=5000,
                   metavar="CYCLES",
                   help="metric-sampling period in simulated cycles "
                        "(default: 5000)")
    p.add_argument("-o", "--out", default="trace.json", metavar="FILE",
                   help="output trace path (default: trace.json)")
    p.add_argument("--trace-capacity", type=int, default=65536,
                   metavar="EVENTS",
                   help="SimTrace ring-buffer capacity; oldest events "
                        "drop beyond it, with a stderr warning "
                        "(default: 65536)")
    p.add_argument("--timeline", action="store_true",
                   help="also print the per-tile link-utilization "
                        "heat-strip timeline")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stalls",
        help="run one observed cell per protocol rung and print the "
             "stacked latency/stall attribution breakdown")
    p.add_argument("--workload", default="radix", metavar="W",
                   help="workload to attribute (case-insensitive; "
                        "default: radix)")
    p.add_argument("--protocols", nargs="+", metavar="P",
                   help="protocol rungs (default: the paper's nine-rung "
                        "ladder)")
    p.add_argument("--scale", choices=sorted(SCALES), default="tiny",
                   help="input-size scale (default: tiny — each rung is "
                        "simulated with attribution attached)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"trace-generator seed (default: {DEFAULT_SEED})")
    p.add_argument("--tiles", nargs="+", metavar="N",
                   help="machine shape (one square tile count; "
                        "default: the paper's 16)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the attribution profiles (segments, "
                        "stall causes, conservation audits) as JSON")
    p.add_argument("--report-section", action="store_true",
                   help="print the markdown report section instead of "
                        "the bare figure")
    p.set_defaults(func=cmd_stalls)

    p = sub.add_parser("list",
                       help="print every workload and protocol rung")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("clean-cache",
                       help="delete every stored result")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="result-store directory to clean")
    p.set_defaults(func=cmd_clean_cache)
    return parser


def _validate(ns: argparse.Namespace) -> Optional[str]:
    """Check argument combinations argparse can't; returns an error."""
    for name in getattr(ns, "workloads", None) or ():
        try:
            canonical_workload(name)
        except KeyError as exc:
            return str(exc.args[0])
    # A failed protocol lookup's KeyError carries near-miss
    # suggestions ("did you mean ...?").
    for name in getattr(ns, "protocols", None) or ():
        try:
            protocol_by_name(name)
        except KeyError as exc:
            return str(exc.args[0])
    jobs = getattr(ns, "jobs", None)
    if jobs is not None and jobs < 0:
        return "--jobs must be >= 0 (0 = one per CPU)"
    # Energy presets resolve the same way.
    if getattr(ns, "preset", None):
        try:
            energy_model(ns.preset)
        except KeyError as exc:
            return str(exc.args[0])
    # Machine shapes: fail before sweeping, with the config's message.
    try:
        tiles = _parse_tiles(ns)
    except ValueError:
        return (f"--tiles takes comma- or space-separated integers "
                f"(got {' '.join(getattr(ns, 'tiles', []))!r})")
    if tiles:
        scale = SCALES[ns.scale]()
        for count in tiles:
            try:
                scaled_system(scale, num_tiles=count)
            except ValueError as exc:
                return f"--tiles {count}: {exc}"
    # Trace runs a single cell: singular flags, one shape.
    if ns.command == "trace":
        try:
            canonical_workload(ns.workload)
        except KeyError as exc:
            return str(exc.args[0])
        try:
            _canonical_protocol(ns.protocol)
        except KeyError as exc:
            return str(exc.args[0])
        if ns.sample_interval <= 0:
            return "--sample-interval must be a positive cycle count"
        if ns.trace_capacity <= 0:
            return "--trace-capacity must be a positive event count"
        if tiles and len(tiles) != 1:
            return ("trace runs one machine shape at a time; pass a "
                    "single --tiles value")
    # Stalls runs one observed cell per rung: one shape, valid names
    # (--protocols entries already resolved above).
    if ns.command == "stalls":
        try:
            canonical_workload(ns.workload)
        except KeyError as exc:
            return str(exc.args[0])
        if tiles and len(tiles) != 1:
            return ("stalls runs one machine shape at a time; pass a "
                    "single --tiles value")
    # The report normalizes to the MESI bar, so a grid without MESI
    # would only fail after the whole sweep ran.
    if ns.command == "report" and ns.protocols and "MESI" not in ns.protocols:
        return ("report normalizes to the MESI baseline; include MESI "
                "in --protocols")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    error = _validate(ns)
    if error is not None:
        print(f"python -m repro {ns.command}: error: {error}",
              file=sys.stderr)
        return 2
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
