"""Observability subsystem tests (repro.obs).

The load-bearing guarantees:

* **parity** — the metrics hub's totals reconcile exactly with the
  legacy ``RunResult`` counters (``energy_counters`` /
  ``protocol_stats``), because both read the same underlying state;
* **bit-identity** — an observed run returns a ``RunResult`` identical
  to an unobserved one (sampling events are subtracted, hooks are pure
  reads), so enabling observability can never perturb science;
* **trace round-trip** — the exported Chrome trace-event JSON is valid,
  Perfetto-shaped and time-ordered;
* **telemetry reconciliation** — every cell in the ``telemetry.json``
  sidecar resolves to a stored result.
"""

import dataclasses
import json

import pytest

from repro.common.config import ScaleConfig, scaled_system
from repro.core.simulator import simulate
from repro.obs import (
    Histogram, MetricsHub, ObsSession, PhaseSampler, SimTrace,
    SweepTelemetry, load_telemetry)
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
# MetricsHub unit behavior
# ----------------------------------------------------------------------

class TestMetricsHub:
    def test_counter_and_gauge_push(self):
        hub = MetricsHub()
        hub.counter("retries").inc()
        hub.counter("retries").inc(2, tile=3)
        hub.gauge("depth").set(7)
        assert hub.total("retries") == 3
        assert hub.get("retries").snapshot() == {"": 1.0, "tile=3": 2.0}
        assert hub.total("depth") == 7

    def test_counters_only_go_up(self):
        hub = MetricsHub()
        with pytest.raises(ValueError):
            hub.counter("n").inc(-1)

    def test_kind_conflicts_rejected(self):
        hub = MetricsHub()
        hub.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            hub.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            hub.histogram("x")

    def test_pull_sources_read_at_snapshot_time(self):
        hub = MetricsHub()
        state = {"n": 1}
        hub.add_pull("live", lambda: state["n"])
        assert hub.total("live") == 1
        state["n"] = 42
        assert hub.total("live") == 42   # not frozen at registration

    def test_unknown_metric_suggests_near_misses(self):
        hub = MetricsHub()
        hub.counter("noc_flit_hops")
        with pytest.raises(KeyError, match="noc_flit_hops"):
            hub.get("noc_flit_hop")

    def test_histogram_buckets_cumulative(self):
        h = Histogram("lat", buckets=(10, 100))
        h.observe(5)
        h.observe(50)
        h.observe(5000)
        snap = h.snapshot()[""]
        assert snap["count"] == 3
        assert snap["sum"] == 5055
        assert snap["buckets"] == {"10": 1.0, "100": 2.0}
        assert h.total() == 3            # observation count, scalar


# ----------------------------------------------------------------------
# Parity and bit-identity on a real cell
# ----------------------------------------------------------------------

class TestObservedRunParity:
    def test_observed_result_bit_identical(self, tiny_cell):
        base, result, _obs = tiny_cell
        assert dataclasses.asdict(base) == dataclasses.asdict(result)

    def test_hub_matches_energy_counters(self, tiny_cell):
        _base, result, obs = tiny_cell
        for key, value in result.energy_counters.items():
            assert key in obs.hub, f"no hub metric for counter {key}"
            assert obs.hub.total(key) == value, key

    def test_hub_matches_protocol_stats(self, tiny_cell):
        _base, result, obs = tiny_cell
        for key, value in result.protocol_stats.items():
            assert obs.hub.total(f"proto_{key}") == value, key

    def test_sampler_produced_a_time_series(self, tiny_cell):
        _base, result, obs = tiny_cell
        assert len(obs.samples) > 2
        cycles = [s["cycle"] for s in obs.samples]
        assert cycles == sorted(cycles)
        # Cumulative counters are monotone across samples.
        series = obs.sampler.series("engine_events")
        values = [v for _c, v in series]
        assert values == sorted(values)

    def test_overhead_events_accounted(self, tiny_cell):
        _base, result, obs = tiny_cell
        assert obs.overhead_events == obs.sampler.ticks > 0
        # The subtraction happened: the engine ran events+ticks total.
        assert obs.hub.total("engine_events") == (
            result.events + obs.overhead_events)

    def test_session_is_single_use(self, tiny_cell):
        _base, _result, obs = tiny_cell
        scale = ScaleConfig.tiny()
        with pytest.raises(RuntimeError, match="one run"):
            simulate(build_workload("radix", scale), "MESI",
                     scaled_system(scale), obs=obs)


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
            trace.instant(f"e{i}", "t", ts=i)
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
        hub = MetricsHub()
        sampler = PhaseSampler(queue, hub, interval=10)
        sampler.start()
        queue.schedule_call(100, lambda: None)
        queue.run()                      # must terminate
        assert queue.pending == 0
        assert sampler.ticks >= 1

    def test_sample_now_dedupes_same_cycle(self):
        from repro.engine.events import EventQueue
        queue = EventQueue()
        sampler = PhaseSampler(queue, MetricsHub(), interval=10)
        sampler.sample_now()
        sampler.sample_now()
        assert len(sampler.samples) == 1
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
        cycles = [cycle for cycle, _value
                  in obs.sampler.series("engine_events")]
        assert len(cycles) > 1
        assert all(b - a <= interval for a, b in zip(cycles, cycles[1:]))


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
# Fleet telemetry
# ----------------------------------------------------------------------

class TestSweepTelemetry:
    def test_sidecar_reconciles_with_store(self, tmp_path):
        from repro.runner.jobs import expand_grid
        from repro.runner.pool import sweep
        from repro.runner.store import ResultStore
        store = ResultStore(tmp_path / "cache")
        specs = expand_grid(["radix"], ["MESI", "DeNovo"],
                            ScaleConfig.tiny())
        telemetry = SweepTelemetry(command="sweep")
        sweep(specs, jobs=1, store=store, progress=telemetry.progress)
        path = telemetry.write(store.sidecar_path())
        data = load_telemetry(path)
        assert data["schema_version"] == 1
        assert data["completed_cells"] == data["total_cells"] == 2
        assert len(data["cells"]) == 2
        for cell in data["cells"]:
            # Every telemetry record must resolve to a stored result.
            result = store.load(cell["workload"], cell["protocol"],
                                cell["store_key"])
            assert result is not None
            assert result.protocol == cell["protocol"]
            assert cell["elapsed_s"] >= 0
            assert not cell["from_cache"]

    def test_cache_hits_marked_on_second_sweep(self, tmp_path):
        from repro.runner.jobs import expand_grid
        from repro.runner.pool import sweep
        from repro.runner.store import ResultStore
        store = ResultStore(tmp_path / "cache")
        specs = expand_grid(["radix"], ["MESI"], ScaleConfig.tiny())
        sweep(specs, jobs=1, store=store)
        telemetry = SweepTelemetry()
        sweep(specs, jobs=1, store=store, progress=telemetry.progress)
        assert telemetry.cache_hits == 1
        assert telemetry.cells[0]["from_cache"]

    def test_sidecar_excluded_from_store_entries(self, tmp_path):
        from repro.runner.store import ResultStore
        store = ResultStore(tmp_path / "cache")
        telemetry = SweepTelemetry()
        telemetry.write(store.sidecar_path())
        assert len(store) == 0
        assert list(store.entries()) == []

    def test_eta_estimate(self):
        clock = iter([0.0, 10.0, 10.0, 20.0, 20.0]).__next__
        telemetry = SweepTelemetry(clock=clock, wall=lambda: 0.0)

        class Spec:
            workload, protocol, num_tiles, seed = "w", "p", 16, 1
            def store_key(self):
                return "k"

        class Outcome:
            spec = Spec()
            elapsed, attempts, from_cache = 1.0, 1, False

        telemetry.record(Outcome(), 1, 4)
        assert telemetry.eta_seconds() == pytest.approx(30.0)


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
        assert data["traceEvents"]
        assert data["otherData"]["protocol"] == "DeNovo"
        printed = capsys.readouterr().out
        assert "perfetto" in printed.lower()
        assert "timeline: FFT / DeNovo" in printed

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

    def test_stalls_rejects_unknown_protocol(self, capsys):
        from repro.runner.cli import main
        rc = main(["stalls", "--protocols", "MESl"])
        assert rc == 2
        assert "MESI" in capsys.readouterr().err  # did-you-mean hint

    def test_progress_flag_writes_sidecar(self, tmp_path, capsys):
        from repro.runner.cli import main
        cache = tmp_path / "cache"
        rc = main(["sweep", "--workloads", "radix", "--protocols", "MESI",
                   "--scale", "tiny", "--cache-dir", str(cache),
                   "--progress"])
        assert rc == 0
        data = load_telemetry(cache / "telemetry.json")
        assert data["completed_cells"] == 1
        assert "telemetry:" in capsys.readouterr().out

    def test_disabled_path_writes_no_sidecar(self, tmp_path):
        from repro.runner.cli import main
        cache = tmp_path / "cache"
        rc = main(["sweep", "--workloads", "radix", "--protocols", "MESI",
                   "--scale", "tiny", "--cache-dir", str(cache)])
        assert rc == 0
        assert not (cache / "telemetry.json").exists()
