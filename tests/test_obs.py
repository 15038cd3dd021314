"""Observability subsystem tests (repro.obs).

The load-bearing guarantees:

* **parity** — the sampled series add up to the ``RunResult``
  counters: the final events sample is the run's events plus the
  sampler's own ticks, and the per-tile flits sum to the flit-hops;
* **bit-identity** — an observed run returns a ``RunResult`` identical
  to an unobserved one (sampling events are subtracted, hooks are pure
  reads), so enabling observability can never perturb science;
* **trace round-trip** — the exported Chrome trace-event JSON is valid,
  Perfetto-shaped and time-ordered.
"""

import dataclasses
import json

import pytest

from repro.common.config import ScaleConfig, protocol, scaled_system
from repro.core.simulator import simulate
from repro.obs import ObsSession, PhaseSampler, SimTrace
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def tiny_cell():
    """One observed and one unobserved run of the same tiny cell."""
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    base = simulate(build_workload("radix", scale), "DBypFull", config)
    obs = ObsSession(sample_interval=2000)
    result = simulate(build_workload("radix", scale), "DBypFull", config,
                      obs=obs)
    return base, result, obs


# ----------------------------------------------------------------------
# Parity and bit-identity on a real cell
# ----------------------------------------------------------------------

class TestObservedRunParity:
    def test_observed_result_bit_identical(self, tiny_cell):
        base, result, _obs = tiny_cell
        assert dataclasses.asdict(base) == dataclasses.asdict(result)

    def test_sampler_produced_a_time_series(self, tiny_cell):
        _base, result, obs = tiny_cell
        assert len(obs.samples) > 2
        cycles = [s["cycle"] for s in obs.samples]
        assert cycles == sorted(cycles)
        # Cumulative counters are monotone across samples.
        for tile in range(len(obs.tile_flits)):
            values = [s["tile_flits"][tile] for s in obs.samples]
            assert values == sorted(values)

    def test_overhead_events_accounted(self, tiny_cell):
        _base, result, obs = tiny_cell
        assert obs.overhead_events == obs.sampler.ticks > 0
        # The subtraction happened: the engine ran events+ticks total.
        assert obs.samples[-1]["events"] == (
            result.events + obs.overhead_events)

    def test_session_is_single_use(self, tiny_cell):
        _base, _result, obs = tiny_cell
        scale = ScaleConfig.tiny()
        with pytest.raises(RuntimeError, match="one run"):
            simulate(build_workload("radix", scale), "MESI",
                     scaled_system(scale), obs=obs)


@pytest.mark.parametrize("name,proto", [("FFT", "DeNovo"), ("radix", "MESI"),
                                        ("LU", "DBypFull")])
def test_sampled_events_count_every_event(name, proto):
    """The events series never falls and ends at every event the queue
    ran: the run's own plus the sampler's ticks."""
    scale = ScaleConfig.tiny()
    obs = ObsSession(sample_interval=1000, trace=False)
    result = simulate(build_workload(name, scale), proto,
                      scaled_system(scale), obs=obs)
    events = [s["events"] for s in obs.samples]
    assert events == sorted(events)
    assert events[-1] == result.events + obs.overhead_events
    executed = [e for _cycle, e, _tiles in obs.intervals()]
    assert all(e > 0 for e in executed[:-1])
    assert sum(executed) == events[-1]


def _flit_hop_track(obs):
    return [e["args"]["flit_hops"] for e in obs.chrome_trace()["traceEvents"]
            if e["name"] == "noc flit-hops/interval"]


def test_flit_hop_track_sums_to_the_flit_hops():
    """With warm-up off the mesh counter and the per-tile counts cover
    the same window, so the track's intervals add up to the run's
    flit-hops."""
    scale = ScaleConfig.tiny()
    workload = dataclasses.replace(build_workload("FFT", scale),
                                   warmup_barriers=0)
    obs = ObsSession(sample_interval=1000)
    result = simulate(workload, "DeNovo", scaled_system(scale), obs=obs)
    track = _flit_hop_track(obs)
    assert len(track) == len(obs.samples) > 2
    assert sum(track) == result.energy_counters["noc_flit_hops"]


def test_flit_hop_track_never_negative_across_warmup_reset():
    """The track runs through FFT's warm-up barrier, where the
    measurement window opens; the per-tile counts it reads, like the
    mesh's own counters, count from cycle 0 and are never reset."""
    scale = ScaleConfig.tiny()
    workload = build_workload("FFT", scale)
    assert workload.warmup_barriers > 0
    obs = ObsSession()
    simulate(workload, "DeNovo", scaled_system(scale), obs=obs)
    track = _flit_hop_track(obs)
    assert track and min(track) >= 0
    assert sum(track) == sum(obs.tile_flits)


# ----------------------------------------------------------------------
# Trace export round-trip
# ----------------------------------------------------------------------

class TestTraceExport:
    def test_chrome_json_round_trip(self, tiny_cell, tmp_path):
        _base, _result, obs = tiny_cell
        path = tmp_path / "trace.json"
        obs.export(path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["workload"] == "radix"
        assert data["otherData"]["protocol"] == "DBypFull"
        assert events, "trace must not be empty"
        for event in events:
            # X/i/C/M plus the s/t/f flow phases linking miss spans.
            assert event["ph"] in ("X", "i", "C", "M", "s", "t", "f")
            assert isinstance(event["name"], str)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "expected complete spans"
        for span in spans:
            assert span["dur"] >= 0
            assert span["ts"] >= 0

    def test_events_time_ordered(self, tiny_cell):
        _base, _result, obs = tiny_cell
        data = obs.chrome_trace()
        ts = [e["ts"] for e in data["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_barrier_phases_cover_the_run(self, tiny_cell):
        _base, _result, obs = tiny_cell
        data = obs.chrome_trace()
        phases = [e for e in data["traceEvents"]
                  if e.get("cat") == "barrier"]
        assert len(phases) == obs.phases
        # Phases are contiguous: each starts where the previous ended.
        for prev, cur in zip(phases, phases[1:]):
            assert cur["ts"] == prev["ts"] + prev["dur"]

    def test_last_phase_ends_when_the_cores_finish(self):
        """The trailing phase span closes at the last core's finish,
        not at the sampler's last tick."""
        from repro.core.system import System
        scale = ScaleConfig.tiny()
        obs = ObsSession()
        system = System(build_workload("FFT", scale), protocol("DeNovo"),
                        scaled_system(scale), obs=obs)
        system.run()
        finish = max(core.finish_time for core in system.cores)
        assert system.ctx.queue.now > finish
        ends = [e["ts"] + e["dur"] for e in obs.chrome_trace()["traceEvents"]
                if e.get("cat") == "barrier"]
        assert ends and max(ends) == finish

    def test_dram_spans_present(self, tiny_cell):
        _base, result, obs = tiny_cell
        data = obs.chrome_trace()
        drams = [e for e in data["traceEvents"] if e.get("cat") == "dram"]
        # One span per serviced request, whole run (reads + writes).
        assert len(drams) == (result.dram_stats["reads"]
                              + result.dram_stats["writes"])

    def test_ring_buffer_drops_oldest(self):
        trace = SimTrace(capacity=4)
        for i in range(10):
            trace.complete(f"e{i}", "t", ts=i, dur=1)
        events = trace.events()
        assert len(events) == 4
        assert trace.dropped == 6
        assert [e["name"] for e in events] == ["e6", "e7", "e8", "e9"]


# ----------------------------------------------------------------------
# Sampler scheduling
# ----------------------------------------------------------------------

class TestPhaseSampler:
    def test_sampler_does_not_keep_queue_alive(self):
        from repro.engine.events import EventQueue
        queue = EventQueue()
        sampler = PhaseSampler(queue, [], interval=10)
        sampler.start()
        queue.schedule_call(100, lambda: None)
        queue.run()                      # must terminate
        assert queue.pending == 0
        assert sampler.ticks >= 1

    def test_sample_now_dedupes_same_cycle(self):
        from repro.engine.events import EventQueue
        queue = EventQueue()
        flits = [0, 0]
        sampler = PhaseSampler(queue, flits, interval=10)
        sampler.sample_now()
        flits[1] = 3
        sampler.sample_now()
        # One sample per cycle, holding the latest counts.
        assert sampler.samples == [
            {"cycle": 0, "events": 0, "tile_flits": [0, 3]}]
        assert sampler.ticks == 0        # no scheduler events consumed

    def test_long_interval_run_bit_identical_to_unobserved(self):
        """A sampler interval above 4096 cycles (far-future re-arms,
        each outliving most of the machine's own events) still leaves
        the observed result bit-identical to an unobserved run."""
        interval = 5096
        scale = ScaleConfig.tiny()
        config = scaled_system(scale)
        base = simulate(build_workload("radix", scale), "MESI", config)
        obs = ObsSession(sample_interval=interval, trace=False)
        result = simulate(build_workload("radix", scale), "MESI", config,
                          obs=obs)
        assert dataclasses.asdict(result) == dataclasses.asdict(base)
        assert obs.overhead_events > 0
        cycles = [sample["cycle"] for sample in obs.samples]
        assert len(cycles) > 1
        assert all(b - a <= interval for a, b in zip(cycles, cycles[1:]))


# ----------------------------------------------------------------------
# Per-tile link flits
# ----------------------------------------------------------------------

class _LinkCountingSession(ObsSession):
    """Also counts flits per directed link, one route link at a time."""

    def attach(self, system):
        super().attach(system)
        ctx = system.ctx
        n = ctx.config.num_tiles
        links = ctx.mesh._links
        self.link_flits = link_flits = [0] * (n * n)

        def per_link(real):
            def wrapped(src, dst, total_flits=1, *rest):
                for link in links[src * n + dst]:
                    link_flits[link] += total_flits
                return real(src, dst, total_flits, *rest)
            return wrapped

        ctx._traverse = per_link(ctx._traverse)
        ctx._latency = per_link(ctx._latency)
        ctx._count_packet = per_link(ctx._count_packet)


@pytest.mark.parametrize("proto", ["MESI", "DeNovo", "DBypFull"])
@pytest.mark.parametrize("name", ["radix", "FFT", "LU"])
def test_tile_link_flits_cover_every_flit_hop(name, proto):
    """Every flit-hop is credited to the tile whose router forwards it.

    Warm-up is off so the mesh's counter and the session's per-tile
    counts cover the same window.
    """
    scale = ScaleConfig.tiny()
    workload = dataclasses.replace(build_workload(name, scale),
                                   warmup_barriers=0)
    obs = _LinkCountingSession(sample_interval=10 ** 9, trace=False)
    result = simulate(workload, proto, scaled_system(scale), obs=obs)
    tiles = list(obs.tile_flits)
    assert sum(tiles) == result.energy_counters["noc_flit_hops"] > 0
    n = len(tiles)
    assert tiles == [sum(obs.link_flits[tile * n:(tile + 1) * n])
                     for tile in range(n)]
    assert obs.samples[-1]["tile_flits"] == tiles


# ----------------------------------------------------------------------
# Timeline figure
# ----------------------------------------------------------------------

class TestTimeline:
    def test_renders_heat_strips(self, tiny_cell):
        from repro.analysis.timeline import figure_timeline
        _base, _result, obs = tiny_cell
        fig = figure_timeline(obs)
        text = fig.render()
        assert "timeline: radix / DBypFull" in text
        assert fig.num_tiles == 16
        assert all(len(strip) == fig.columns
                   for strip in fig.strips.values())
        assert any(any(v > 0 for v in strip)
                   for strip in fig.strips.values())

    def test_graceful_with_no_samples(self):
        from repro.analysis.timeline import figure_timeline
        obs = ObsSession()               # never attached: no samples
        fig = figure_timeline(obs)
        assert fig.columns == 1
        fig.render()                     # must not raise


# ----------------------------------------------------------------------
# Sweep progress reporting
# ----------------------------------------------------------------------

class TestSweepTelemetry:
    def test_cache_hits_marked_on_second_sweep(self, tmp_path):
        """The second sweep of a stored cell reports it to the progress
        callback, and returns it, as served from the cache."""
        from repro.runner.jobs import expand_grid
        from repro.runner.pool import sweep
        from repro.runner.store import ResultStore
        store = ResultStore(tmp_path / "cache")
        specs = expand_grid(["radix"], ["MESI"], ScaleConfig.tiny())
        first = sweep(specs, jobs=1, store=store)
        assert not first[0].from_cache
        seen = []
        second = sweep(specs, jobs=1, store=store,
                       progress=lambda outcome, done, total:
                       seen.append((outcome, done, total)))
        assert [(o.from_cache, done, total) for o, done, total in seen] \
            == [(True, 1, 1)]
        assert second[0].from_cache
        assert second[0].status() == "cached"
        assert second[0].result == first[0].result


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestCli:
    def test_trace_command_exports_valid_json(self, tmp_path, capsys):
        from repro.runner.cli import main
        out = tmp_path / "trace.json"
        rc = main(["trace", "--workload", "fft", "--protocol", "denovo",
                   "--scale", "tiny", "-o", str(out), "--timeline"])
        assert rc == 0
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert events
        assert data["otherData"]["protocol"] == "DeNovo"
        printed = capsys.readouterr().out
        assert "perfetto" in printed.lower()
        assert "timeline: FFT / DeNovo" in printed
        # X/i/C/M spans plus s/t/f flow links; attributed misses start
        # flows.
        assert {e["ph"] for e in events} <= {"X", "i", "C", "M",
                                             "s", "t", "f"}
        assert any(e["ph"] == "s" for e in events), "no miss flows"
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts), "trace events out of order"
        assert any(e.get("cat") == "barrier" for e in events)
        assert any(e.get("cat") == "dram" for e in events)
        # Exactly the three sampled counter tracks: events executed per
        # interval (not all zero) and flit-hops per interval (never
        # negative, even across the warm-up reset).
        tracks = {}
        for e in events:
            if e["ph"] == "C":
                tracks.setdefault(e["name"], []).append(e["args"])
        assert set(tracks) == {"events/interval", "noc flit-hops/interval",
                               "tile link flits/interval"}, sorted(tracks)
        assert any(a["events"] > 0 for a in tracks["events/interval"])
        assert all(a["flit_hops"] >= 0
                   for a in tracks["noc flit-hops/interval"])

    def test_trace_rejects_unknown_protocol(self, capsys):
        from repro.runner.cli import main
        rc = main(["trace", "--protocol", "NoSuchProto"])
        assert rc == 2

    def test_trace_capacity_flag_warns_on_drops(self, tmp_path, capsys):
        from repro.runner.cli import main
        out = tmp_path / "trace.json"
        rc = main(["trace", "--workload", "radix", "--scale", "tiny",
                   "--trace-capacity", "64", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        # Metadata (M) and sampler counter (C) events are synthesized
        # at export; only span/instant/flow events live in the ring.
        ring = [e for e in data["traceEvents"]
                if e["ph"] not in ("M", "C")]
        assert len(ring) <= 64           # ring sized by the flag
        assert data["otherData"]["dropped_events"] > 0
        err = capsys.readouterr().err
        assert "dropped" in err
        assert "--trace-capacity" in err     # suggests a retry size

    def test_trace_capacity_must_be_positive(self, capsys):
        from repro.runner.cli import main
        rc = main(["trace", "--trace-capacity", "0"])
        assert rc == 2
        assert "--trace-capacity" in capsys.readouterr().err

    def test_stalls_command_renders_and_writes_json(self, tmp_path,
                                                    capsys):
        from repro.runner.cli import main
        out = tmp_path / "stalls.json"
        rc = main(["stalls", "--workload", "radix", "--protocols",
                   "MESI", "DBypFull", "--scale", "tiny",
                   "--json", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "stall attribution: radix (16 tiles)" in printed
        assert "2 rung(s)" in printed
        data = json.loads(out.read_text())
        assert [p["protocol"] for p in data["profiles"]] == [
            "MESI", "DBypFull"]
        assert all(p["audits"]["ok"] for p in data["profiles"])

    def test_stalls_json_covers_the_whole_ladder(self, tmp_path, capsys):
        """One profile per paper rung in ladder order, every audit
        passing; radix has no Flex pattern, so DFlexL1 and DFlexL2 carry
        copies of the DeNovo and DMemL1 profiles under their own
        names."""
        from repro.common.config import PROTOCOL_ORDER
        from repro.runner.cli import main
        out = tmp_path / "stalls.json"
        rc = main(["stalls", "--workload", "radix", "--scale", "tiny",
                   "--json", str(out)])
        assert rc == 0
        capsys.readouterr()
        profiles = json.loads(out.read_text())["profiles"]
        names = [p["protocol"] for p in profiles]
        assert names == list(PROTOCOL_ORDER)
        assert len(set(names)) == len(names) == 9
        assert all(p["audits"]["ok"] for p in profiles)
        by_name = {p.pop("protocol"): p for p in profiles}
        for copied, source in (("DFlexL1", "DeNovo"),
                               ("DFlexL2", "DMemL1")):
            assert by_name[copied] == by_name[source], (copied, source)

    def test_stalls_rejects_unknown_protocol(self, capsys):
        from repro.runner.cli import main
        rc = main(["stalls", "--protocols", "MESl"])
        assert rc == 2
        assert "MESI" in capsys.readouterr().err  # did-you-mean hint

    def test_disabled_path_writes_no_sidecar(self, tmp_path):
        from repro.runner.cli import main
        cache = tmp_path / "cache"
        rc = main(["sweep", "--workloads", "radix", "--protocols", "MESI",
                   "--scale", "tiny", "--cache-dir", str(cache)])
        assert rc == 0
        assert not (cache / "telemetry.json").exists()
