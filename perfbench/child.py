"""One workload pass in a fresh interpreter; ``run.py`` spawns it.

Usage: ``python3 perfbench/child.py PHASE ARGS_JSON``.  ``ARGS_JSON``
holds the phase's arguments and ``out``, the file the phase writes its
JSON record to.  Timestamps are readings of :data:`speed.clock`, this
process's CPU time.

Work that only checks results (digests, counts) happens
after ``t_done``, outside the time the parent charges to the workload.
With ``meter`` in the arguments the phase runs under a
:class:`speed.Meter`, and the record's ``probes`` place the host's speed
on the same clock; ``t_start`` is when the phase began, after the
interpreter's own start-up.  The parent runs children with a fixed
``PYTHONHASHSEED``: string hashes decide where the interpreter's
attribute caches collide, so a seed drawn per process would make one
process faster than the next with no change to the program.
"""

from __future__ import annotations

import json
import sys

from speed import Meter, clock

LADDER = ("MESI", "DeNovo", "DBypFull")
#: The ladder cell profiled in the traced run: DeNovo core, Bloom
#: filters, L2 bypass and DRAM all run in it.
LADDER_TRACED = "DBypFull"
STALLS_WORKLOAD = "radix"


def _rss_mb() -> float:
    """Peak resident memory of this process, less the meter's own."""
    import resource
    from speed import resident_overhead_mb
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - resident_overhead_mb())


def digest(data) -> str:
    import hashlib
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cell_record(result, label: str, **extra) -> dict:
    """Digest and exact counts of one ``RunResult``."""
    from repro.runner.store import result_to_dict
    data = result_to_dict(result)
    energy = data["energy_counters"]
    proto = data["protocol_stats"]
    dram = data["dram_stats"]
    record = {
        "label": label,
        "digest": digest(data),
        "counts": {
            "events": data["events"],
            "exec_cycles": data["exec_cycles"],
            "flit_hops": energy.get("noc_flit_hops", 0),
            "traffic_flit_hops": sum(sum(b.values())
                                     for b in data["traffic"].values()),
            "packets": energy.get("noc_packets", 0),
            "l1_probes": energy.get("l1_probes", 0),
            "l2_probes": energy.get("l2_probes", 0),
            "dram_accesses": dram.get("reads", 0) + dram.get("writes", 0),
            "dram_row_hits": dram.get("row_hits", 0),
            "dram_row_misses": dram.get("row_misses", 0),
            "nacks": proto.get("nacks", 0),
            "registrations": proto.get("registrations", 0),
            "bypass_queries": proto.get("bypass_queries", 0),
            "direct_requests": proto.get("direct_requests", 0),
            "l1_waste": data["l1_waste"],
            "l2_waste": data["l2_waste"],
            "mem_waste": data["mem_waste"],
        },
    }
    record.update(extra)
    return record


def _layer_map():
    from pathlib import Path
    import repro
    from layers import LayerMap
    return LayerMap(Path(repro.__file__).parent, Path(__file__).parent)


class Profiled:
    """``cProfile`` around a block; ``folded`` holds the layer split."""

    def __enter__(self):
        import cProfile
        self._profile = cProfile.Profile()
        self.start = clock()
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()
        self.seconds = clock() - self.start
        import pstats
        from layers import fold
        self.folded = fold(pstats.Stats(self._profile).stats, _layer_map())
        return False


def _tap_sweeps(events: list, phases: list, spans: dict) -> None:
    """Route every sweep through a progress tap that records each
    outcome with its completion time; ``phases`` gets each sweep's
    (start, end), and ``spans`` the (start, end) of every in-process
    ``simulate`` call, keyed by the id of its result."""
    import repro.runner.cli as cli
    import repro.runner.pool as pool
    original = pool.sweep
    simulate = pool.simulate

    def timed_simulate(*args, **kwargs):
        start = clock()
        result = simulate(*args, **kwargs)
        spans[id(result)] = [start, clock()]
        return result

    def sweep(specs, *args, progress=None, **kwargs):
        def tap(outcome, done, total):
            events.append((clock(), outcome))
            if progress is not None:
                progress(outcome, done, total)

        start = clock()
        try:
            return original(specs, *args, progress=tap, **kwargs)
        finally:
            phases.append((start, clock()))

    cli.sweep = pool.sweep = sweep
    pool.simulate = timed_simulate


def _outcome_cells(events, spans: dict) -> list:
    return [cell_record(outcome.result,
                        f"{outcome.spec.workload}/{outcome.spec.protocol}",
                        row=outcome.spec.workload, seconds=outcome.elapsed,
                        attempts=outcome.attempts, cached=outcome.from_cache,
                        stamp=stamp, span=spans.get(id(outcome.result)))
            for stamp, outcome in events]


def _sweep_argv(args: dict, store: str, rows=None) -> list:
    argv = ["sweep", "--scale", "tiny", "--seed", str(args["seed"]),
            "--cache-dir", store]
    if rows:
        argv += ["--workloads", *rows]
    if args.get("jobs"):
        argv += ["--jobs", str(args["jobs"])]
    return argv


def _spans(args: dict):
    if not args.get("spans"):
        return None
    from layers import layer_spans
    return layer_spans()


def _close(spans, out: dict) -> None:
    if spans is not None:
        spans.close()
        out["spans"] = dict(spans.seconds)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------

def phase_probe(args: dict) -> dict:
    """Set-up time: import the CLI and build its parser."""
    import repro.runner.cli as cli
    cli.build_parser()
    return {"t_ready": clock()}


def phase_grid_sweep(args: dict) -> dict:
    """``repro sweep --scale tiny`` of the paper grid into an empty store.

    ``rows`` narrows the sweep to some kernels.  With ``trace_rows``,
    those rows are swept once more into ``trace_store`` under cProfile.
    """
    import repro.runner.cli as cli
    t_ready = clock()
    events, phases, sim_spans = [], [], {}
    _tap_sweeps(events, phases, sim_spans)
    spans = _spans(args)
    rc = cli.main(_sweep_argv(args, args["store"], args.get("rows")))
    t_done = clock()
    out = {"rc": rc, "t_ready": t_ready, "t_done": t_done,
           "rss_mb": _rss_mb(), "sim_phase": phases[0],
           "cells": _outcome_cells(events, sim_spans)}
    _close(spans, out)
    if args.get("trace_rows"):
        events.clear()
        phases.clear()
        with Profiled() as prof:
            cli.main(_sweep_argv(args, args["trace_store"],
                                 args["trace_rows"]))
        out["traced"] = {"seconds": phases[0][1] - phases[0][0],
                         "layers": prof.folded,
                         "cells": _outcome_cells(events, sim_spans)}
    return out


def phase_grid_report(args: dict) -> dict:
    """``repro report --scale tiny`` over the store the sweep filled.

    With ``profile``, cProfile runs from before the first import.
    """
    prof = Profiled().__enter__() if args.get("profile") else None
    import repro.analysis.report as report
    import repro.runner.cli as cli
    t_ready = clock()
    events, phases, grids = [], [], []
    _tap_sweeps(events, phases, {})
    spans = _spans(args)
    generate = report.generate

    def capture(grid=None, *a, **kw):
        grids.append(grid)
        return generate(grid, *a, **kw)

    report.generate = capture
    rc = cli.main(["report", "--scale", "tiny", "--seed", str(args["seed"]),
                   "--cache-dir", args["store"]])
    t_done = clock()
    if prof is not None:
        prof.__exit__(None, None, None)
    out = {"rc": rc, "t_ready": t_ready, "t_done": t_done,
           "rss_mb": _rss_mb(), "cells": _outcome_cells(events, {})}
    _close(spans, out)
    if prof is not None:
        out["traced"] = {"seconds": t_done - prof.start,
                         "layers": prof.folded}
    if args.get("spans") and grids:
        out["headline_err_pp"] = headline_error_pp(grids[0])
    return out


def headline_error_pp(grid) -> float:
    """Mean absolute error, in percentage points, of the report's
    headline values against the paper's."""
    from repro.analysis.report import HEADLINES
    errors = [abs(100.0 * metric(grid) - float(paper.rstrip("%")))
              for _text, paper, metric in HEADLINES]
    return sum(errors) / len(errors)


def render_figures(grid) -> str:
    """Every paper figure over ``grid``, as ``repro figures`` prints it."""
    from repro.analysis.figures import ALL_FIGURES
    return "\n".join(build(grid).render() for build in ALL_FIGURES.values())


def phase_render(args: dict) -> dict:
    """The report of a ladder or stalls pass, in a fresh interpreter:
    load the results the pass saved, then render every paper figure
    over the ladder's cells, or the stall figure and its report
    section."""
    with open(args["results"]) as fh:
        payload = json.load(fh)
    if args["kind"] == "stalls":
        import repro.analysis.stalls as stalls
        profiles, num_tiles = payload["profiles"], payload["num_tiles"]
        text = (stalls.figure_stalls(profiles, num_tiles).render()
                + stalls.report_section(profiles, num_tiles))
    else:
        from repro.runner.store import result_from_dict
        text = render_figures({"radix": {
            protocol: result_from_dict(data)
            for protocol, data in payload.items()}})
    t_done = clock()
    return {"rc": 0, "t_done": t_done, "rss_mb": _rss_mb(),
            "digest": digest(text)}


def phase_ladder(args: dict) -> dict:
    """In-process ``simulate()`` of radix at the small scale, three rungs.

    With ``trace``, the :data:`LADDER_TRACED` cell runs once more under
    cProfile.
    """
    import repro.core.simulator as simulator
    import repro.workloads as workloads
    from repro.common.config import ScaleConfig, scaled_system
    t_ready = clock()
    spans = _spans(args)
    scale = ScaleConfig()
    config = scaled_system(scale)
    results, cell_spans = {}, {}
    start = clock()
    workload = workloads.build_workload("radix", scale, seed=args["seed"])
    for protocol in LADDER:
        cell_start = clock()
        results[protocol] = simulator.simulate(workload, protocol, config)
        cell_spans[protocol] = [cell_start, clock()]
    sim_end = clock()
    grid = {"radix": results}
    render_figures(grid)
    t_done = clock()
    out = {"rc": 0, "t_ready": t_ready, "t_done": t_done,
           "rss_mb": _rss_mb(), "sim_phase": (start, sim_end)}
    if spans is not None:
        spans.seconds["analysis.render_s"] += t_done - sim_end
    _close(spans, out)
    from repro.runner.store import result_to_dict
    with open(args["results"], "w") as fh:
        json.dump({p: result_to_dict(results[p]) for p in LADDER}, fh)
    out["cells"] = [cell_record(results[p], f"radix/{p}", row="radix",
                                seconds=cell_spans[p][1] - cell_spans[p][0],
                                span=cell_spans[p]) for p in LADDER]
    if args.get("trace"):
        with Profiled() as prof:
            traced = simulator.simulate(workload, LADDER_TRACED, config)
        out["traced"] = {"seconds": prof.seconds, "layers": prof.folded,
                         "untraced_s": (cell_spans[LADDER_TRACED][1]
                                        - cell_spans[LADDER_TRACED][0]),
                         "cells": [cell_record(traced,
                                               f"radix/{LADDER_TRACED}")]}
    return out


def _tap_simulate(sims: list):
    """Record every ``simulate`` call's result and (start, end); returns
    the untapped function."""
    import repro.core.simulator as simulator
    original = simulator.simulate

    def simulate(workload, proto, config=None, obs=None):
        start = clock()
        result = original(workload, proto, config, obs=obs)
        sims.append((result, [start, clock()]))
        return result

    simulator.simulate = simulate
    return original


def phase_stalls(args: dict) -> dict:
    """``repro stalls --scale tiny --workload radix``: nine observed rungs.

    With ``trace``, the same nine cells also run unobserved (for the
    observation overhead), then the command runs again under cProfile.
    """
    import repro.analysis.stalls as stalls
    import repro.runner.cli as cli
    t_ready = clock()
    sims, phases = [], []
    untapped = _tap_simulate(sims)
    collect = stalls.collect_stall_profiles

    def timed_collect(*a, **kw):
        start = clock()
        try:
            return collect(*a, **kw)
        finally:
            phases.append((start, clock()))

    stalls.collect_stall_profiles = timed_collect
    spans = _spans(args)
    argv = ["stalls", "--scale", "tiny", "--workload", STALLS_WORKLOAD,
            "--seed", str(args["seed"])]
    main_start = clock()
    rc = cli.main(argv + ["--json", args["json"]])
    t_done = clock()
    out = {"rc": rc, "t_ready": t_ready, "t_done": t_done,
           "rss_mb": _rss_mb(), "sim_phase": phases[0]}
    _close(spans, out)
    with open(args["json"]) as fh:
        profiles = json.load(fh)["profiles"]
    out["cells"] = [
        cell_record(result, f"{STALLS_WORKLOAD}/{profile['protocol']}",
                    row=STALLS_WORKLOAD, seconds=span[1] - span[0],
                    span=span, profile_digest=digest(profile),
                    audits_ok=bool(profile["audits"]["ok"]))
        for (result, span), profile in zip(sims, profiles)]
    if not args.get("trace"):
        return out

    import repro.workloads as workloads
    from repro.common.config import ScaleConfig, scaled_system
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    start = clock()
    for profile in profiles:
        built = workloads.build_workload(STALLS_WORKLOAD, scale,
                                         num_cores=config.num_tiles,
                                         seed=args["seed"])
        untapped(built, profile["protocol"], config)
    out["unobserved_s"] = clock() - start
    first = len(sims)
    with Profiled() as prof:
        cli.main(argv + ["--json", args["trace_json"]])
    out["traced"] = {"seconds": prof.seconds, "layers": prof.folded,
                     "untraced_s": t_done - main_start,
                     "cells": [cell_record(result, f"{STALLS_WORKLOAD}/"
                                           f"{result.protocol}")
                               for result, _s in sims[first:]]}
    return out


PHASES = {
    "probe": phase_probe,
    "grid_sweep": phase_grid_sweep,
    "grid_report": phase_grid_report,
    "ladder": phase_ladder,
    "stalls": phase_stalls,
    "render": phase_render,
}


def main(argv) -> int:
    phase, args = argv[1], json.loads(argv[2])
    meter = Meter(args.get("meter", False))
    with meter:
        t_start = clock()
        record = PHASES[phase](args)
    record.update(t_start=t_start, probes=meter.samples)
    with open(args["out"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
