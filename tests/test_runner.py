"""Tests for the parallel sweep-execution subsystem (repro.runner)."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.analysis import experiments
from repro.common.config import ScaleConfig, SystemConfig, scaled_system
from repro.runner import (
    DEFAULT_SEED, JobSpec, ResultStore, config_key, expand_grid,
    result_to_dict, run_jobs, sweep, sweep_grid)
from repro.runner.cli import main as cli_main

TINY = ScaleConfig.tiny()
TINY_SYSTEM = scaled_system(TINY)


def spec(workload="radix", protocol="MESI", **kwargs):
    return JobSpec(workload=workload, protocol=protocol, scale=TINY,
                   config=TINY_SYSTEM, **kwargs)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path)


@pytest.fixture(scope="module")
def radix_result():
    return run_jobs([spec()])[0].result


# ----------------------------------------------------------------------
# Job specs and keys
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_keys_deterministic(self):
        assert spec().job_key() == spec().job_key()
        assert spec().store_key() == spec().store_key()

    def test_job_key_differs_by_every_axis(self):
        base = spec()
        assert base.job_key() != spec(protocol="DeNovo").job_key()
        assert base.job_key() != spec(workload="LU").job_key()
        assert base.job_key() != spec(seed=7).job_key()
        other_cfg = JobSpec(workload="radix", protocol="MESI", scale=TINY,
                            config=SystemConfig(l1_kb=64))
        assert base.job_key() != other_cfg.job_key()

    def test_store_key_is_pinned(self):
        """Cache keys must never change *silently*.  Pinned literals:
        the GRID_VERSION-10 keys (the execution-engine axis was removed:
        ``SystemConfig.engine`` left the config hash payload,
        deliberately retiring the v9 keys).
        If this fails, the hash payload or serialization changed and
        every stored result silently became unreachable; bump
        GRID_VERSION deliberately and re-pin instead."""
        from repro.common.config import DEFAULT_SCALE, scaled_system
        assert config_key(
            DEFAULT_SCALE,
            scaled_system(DEFAULT_SCALE)) == "58a28c1bdaa29f66"
        assert spec().store_key() == "0a93056dc1d5f228-t16"

    def test_config_key_differs_by_scale_and_system(self):
        base = config_key(ScaleConfig(), SystemConfig())
        assert base == config_key(ScaleConfig(), SystemConfig())
        assert base != config_key(TINY, SystemConfig())
        assert base != config_key(ScaleConfig(), SystemConfig(l1_kb=64))

    def test_store_key_includes_non_default_seed(self):
        assert spec(seed=7).store_key() != spec().store_key()
        assert spec(seed=7).store_key().startswith(
            config_key(TINY, TINY_SYSTEM))

    def test_store_key_tags_the_machine_shape(self):
        from repro.common.config import reshape_system
        small = spec()
        big = JobSpec(workload="radix", protocol="MESI", scale=TINY,
                      config=reshape_system(TINY_SYSTEM, 64))
        assert small.store_key().endswith("-t16")
        assert big.store_key().endswith("-t64")
        assert small.config_key() != big.config_key()
        assert small.job_key() != big.job_key()

    def test_workload_name_canonicalized(self):
        assert spec(workload="RADIX").workload == "radix"
        assert spec(workload="RADIX").job_key() == spec().job_key()

    def test_unknown_names_fail_eagerly(self):
        with pytest.raises(KeyError):
            spec(workload="nope")
        with pytest.raises(KeyError):
            spec(protocol="nope")

    def test_expand_grid_workload_major_paper_order(self):
        specs = expand_grid(("LU", "radix"), ("MESI", "DeNovo"), TINY)
        assert [(s.workload, s.protocol) for s in specs] == [
            ("LU", "MESI"), ("LU", "DeNovo"),
            ("radix", "MESI"), ("radix", "DeNovo")]

    def test_expand_grid_tiles_axis_keeps_shapes_adjacent(self):
        """Protocol cells sharing one (workload, shape) trace must be
        adjacent so pool workers reuse the per-shape trace memo."""
        specs = expand_grid(("radix",), ("MESI", "DeNovo"), TINY,
                            tiles=(4, 16))
        assert [(s.workload, s.num_tiles, s.protocol) for s in specs] == [
            ("radix", 4, "MESI"), ("radix", 4, "DeNovo"),
            ("radix", 16, "MESI"), ("radix", 16, "DeNovo")]
        # The 16-tile cells reuse the base config object unchanged.
        assert specs[2].config == TINY_SYSTEM


# ----------------------------------------------------------------------
# Durable result store
# ----------------------------------------------------------------------

class TestResultStore:
    def test_roundtrip(self, store, radix_result):
        store.save(radix_result, "k")
        loaded = store.load("radix", "MESI", "k")
        assert loaded is not None
        assert result_to_dict(loaded) == result_to_dict(radix_result)

    def test_missing_is_none(self, store):
        assert store.load("radix", "MESI", "absent") is None

    def test_corrupt_file_is_none(self, store, radix_result):
        path = store.save(radix_result, "k")
        path.write_text("{definitely not json")
        assert store.load("radix", "MESI", "k") is None

    def test_truncated_file_is_none(self, store, radix_result):
        path = store.save(radix_result, "k")
        blob = path.read_text()
        path.write_text(blob[:len(blob) // 2])
        assert store.load("radix", "MESI", "k") is None

    def test_wrong_schema_version_is_none(self, store, radix_result):
        path = store.save(radix_result, "k")
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 999
        path.write_text(json.dumps(envelope))
        assert store.load("radix", "MESI", "k") is None

    def test_bare_payload_without_envelope_is_none(self, store,
                                                   radix_result):
        """A result dict without the schema envelope is not a cell."""
        path = store.path_for("radix", "MESI", "k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result_to_dict(radix_result)))
        assert store.load("radix", "MESI", "k") is None

    def test_loaded_waste_keys_are_categories(self, store, radix_result):
        from repro.waste.profiler import Category
        store.save(radix_result, "k")
        loaded = store.load("radix", "MESI", "k")
        for waste in (loaded.l1_waste, loaded.l2_waste, loaded.mem_waste):
            assert all(isinstance(k, Category) for k in waste)

    def test_concurrent_writers_never_tear(self, store, radix_result):
        """Many writers racing on one cell: readers always see a whole
        file (atomic rename), never interleaved or partial content."""
        import copy
        errors = []

        def writer(tag):
            mine = copy.deepcopy(radix_result)
            mine.exec_cycles = tag
            for _ in range(10):
                store.save(mine, "race")

        threads = [threading.Thread(target=writer, args=(i + 1,))
                   for i in range(8)]

        def reader():
            for _ in range(40):
                loaded = store.load("radix", "MESI", "race")
                if loaded is not None and loaded.exec_cycles not in range(1, 9):
                    errors.append(loaded.exec_cycles)

        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = store.load("radix", "MESI", "race")
        assert final is not None and final.exec_cycles in range(1, 9)
        assert not list(store.directory.glob("*.tmp"))

    def test_clear_and_len(self, store, radix_result):
        store.save(radix_result, "a")
        store.save(radix_result, "b")
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultStore().directory == tmp_path / "elsewhere"


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------

class TestSweep:
    SPECS = None  # built lazily: one cheap workload, two protocols

    @classmethod
    def specs(cls):
        if cls.SPECS is None:
            cls.SPECS = expand_grid(("stream",), ("MESI", "DeNovo"), TINY)
        return cls.SPECS

    def test_serial_and_parallel_results_bit_identical(self, store):
        """Acceptance: --jobs N must reproduce the serial path exactly."""
        serial = sweep(self.specs(), jobs=1, store=store, use_cache=False)
        parallel = sweep(self.specs(), jobs=4, store=store, use_cache=False)
        assert [o.spec for o in serial] == [o.spec for o in parallel]
        for a, b in zip(serial, parallel):
            assert result_to_dict(a.result) == result_to_dict(b.result)

    def test_sweep_populates_store_then_serves_from_it(self, store):
        cold = sweep(self.specs(), jobs=1, store=store)
        assert all(not o.from_cache for o in cold)
        assert len(store) == len(self.specs())
        warm = sweep(self.specs(), jobs=1, store=store)
        assert all(o.from_cache for o in warm)
        for a, b in zip(cold, warm):
            assert result_to_dict(a.result) == result_to_dict(b.result)

    def test_corrupt_cache_falls_back_to_resimulation(self, store):
        sweep(self.specs(), jobs=1, store=store)
        victim = self.specs()[0]
        path = store.path_for(victim.workload, victim.protocol,
                              victim.store_key())
        path.write_text("\x00garbage")
        redone = sweep(self.specs(), jobs=1, store=store)
        assert not redone[0].from_cache          # re-simulated
        assert redone[1].from_cache              # untouched cell reused
        # ... and the save repaired the corrupt file.
        assert store.load(victim.workload, victim.protocol,
                          victim.store_key()) is not None

    def test_progress_reports_every_cell_in_completion_order(self, store):
        seen = []
        sweep(self.specs(), jobs=1, store=store, use_cache=False,
              progress=lambda o, done, total: seen.append(
                  (o.spec.label(), done, total)))
        assert [d for _, d, _ in seen] == [1, 2]
        assert all(t == 2 for _, _, t in seen)
        assert {lbl for lbl, _, _ in seen} == {s.label() for s in self.specs()}

    def test_run_jobs_keeps_input_order_under_parallelism(self):
        outcomes = run_jobs(self.specs(), jobs=2)
        assert [o.spec for o in outcomes] == list(self.specs())
        assert all(o.elapsed > 0 and o.attempts >= 1 for o in outcomes)

    def test_sweep_grid_shape(self, store):
        grid = sweep_grid(("stream",), ("MESI", "DeNovo"), TINY,
                          store=store)
        assert list(grid) == ["stream"]
        assert list(grid["stream"]) == ["MESI", "DeNovo"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs >=2 CPUs to demonstrate speedup")
    def test_parallel_sweep_is_faster(self, store):
        import time
        specs = expand_grid(("radix", "stream"), ("MESI", "DeNovo"), TINY)
        t0 = time.perf_counter()
        sweep(specs, jobs=1, store=store, use_cache=False)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        sweep(specs, jobs=os.cpu_count(), store=store, use_cache=False)
        parallel = time.perf_counter() - t0
        assert parallel < serial


# ----------------------------------------------------------------------
# run_grid delegation and the bounded in-process LRU
# ----------------------------------------------------------------------

class TestExecution:
    def test_serial_rungs_share_one_trace_build(self, monkeypatch):
        """A workload's protocol rungs reuse one memoized trace, and the
        memo is released once the sweep ends."""
        from repro.runner import pool as pool_mod
        builds = []
        build = pool_mod.build_workload

        def counting_build(*args, **kwargs):
            builds.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "build_workload", counting_build)
        specs = expand_grid(["stream"], ["MESI", "DeNovo", "DBypL2"], TINY)
        outcomes = run_jobs(specs, jobs=1)
        assert builds == ["stream"]
        assert [o.attempts for o in outcomes] == [1, 1, 1]
        assert pool_mod._WORKLOAD_MEMO == {}

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="injects the crash through fork-inherited module state")
    def test_dead_workers_retry_then_fall_back_to_serial(self, monkeypatch):
        """Every pool worker dies mid-cell: each cell is retried once in
        a fresh pool, then runs in the parent and still completes."""
        from repro.runner import pool as pool_mod
        parent = os.getpid()
        simulate = pool_mod.simulate

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "simulate", dies_in_workers)
        specs = expand_grid(["stream"], ["MESI", "DeNovo"], TINY)
        outcomes = run_jobs(specs, jobs=2, retries=1)
        assert [o.spec for o in outcomes] == list(specs)
        assert [o.attempts for o in outcomes] == [3, 3]
        serial = run_jobs(specs, jobs=1)
        for a, b in zip(outcomes, serial):
            assert result_to_dict(a.result) == result_to_dict(b.result)

    def test_deterministic_error_surfaces_from_the_parent(self,
                                                          monkeypatch):
        from repro.runner import pool as pool_mod

        def broken(*args, **kwargs):
            raise ValueError("protocol bug")

        monkeypatch.setattr(pool_mod, "simulate", broken)
        specs = expand_grid(["stream"], ["MESI", "DeNovo"], TINY)
        with pytest.raises(ValueError, match="protocol bug"):
            run_jobs(specs, jobs=2, retries=1)


class TestRunGridLRU:
    def test_run_grid_memoizes_and_evicts_lru(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(experiments, "GRID_CACHE_MAX_ENTRIES", 2)
        experiments.clear_cache()
        try:
            combos = [("MESI",), ("DeNovo",), ("MESI", "DeNovo")]
            for protos in combos:
                experiments.run_grid(workloads=("stream",), protocols=protos,
                                     scale=TINY)
            assert len(experiments._GRID_CACHE) == 2
            # Oldest entry evicted: re-running it is a miss (served from
            # disk), the newest is still memoized (same object back).
            newest = experiments.run_grid(workloads=("stream",),
                                          protocols=combos[-1], scale=TINY)
            assert newest is experiments.run_grid(
                workloads=("stream",), protocols=combos[-1], scale=TINY)
        finally:
            experiments.clear_cache()

    def test_run_grid_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        experiments.clear_cache()
        try:
            serial = experiments.run_grid(
                workloads=("stream",), protocols=("MESI", "DeNovo"),
                scale=TINY, use_cache=False, jobs=1)
            parallel = experiments.run_grid(
                workloads=("stream",), protocols=("MESI", "DeNovo"),
                scale=TINY, use_cache=False, jobs=2)
            for proto in ("MESI", "DeNovo"):
                assert (result_to_dict(serial["stream"][proto])
                        == result_to_dict(parallel["stream"][proto]))
        finally:
            experiments.clear_cache()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCLI:
    def test_sweep_prints_progress_and_persists(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--workloads", "stream",
                       "--protocols", "MESI", "DeNovo",
                       "--scale", "tiny", "--jobs", "2",
                       "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[  1/2]" in out and "[  2/2]" in out
        assert len(ResultStore(tmp_path)) == 2

    def test_sweep_cached_second_run(self, tmp_path, capsys):
        args = ["sweep", "--workloads", "stream", "--protocols", "MESI",
                "--scale", "tiny", "--cache-dir", str(tmp_path)]
        cli_main(args)
        capsys.readouterr()
        cli_main(args)
        assert "cached" in capsys.readouterr().out

    def test_figures_renders_selected_figure(self, tmp_path, capsys):
        rc = cli_main(["figures", "--figures", "5.1a",
                       "--workloads", "stream", "--protocols",
                       "MESI", "DeNovo", "--scale", "tiny",
                       "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 5.1a" in out and "stream" in out

    def test_unknown_workload_is_a_clean_cli_error(self, capsys):
        rc = cli_main(["sweep", "--workloads", "radxi", "--scale", "tiny"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err and "radxi" in err

    def test_unknown_protocol_suggests_near_miss(self, capsys):
        rc = cli_main(["sweep", "--protocols", "MESl", "--scale", "tiny"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "MESl" in err
        assert "did you mean" in err and "MESI" in err

    def test_list_prints_registered_workloads_and_protocols(self, capsys):
        rc = cli_main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "workloads:" in out and "protocols:" in out
        for workload in ("fluidanimate", "radix", "stream"):
            assert workload in out
        # The paper ladder and the beyond-paper rungs both appear.
        for proto in ("MESI", "DBypFull", "MDirtyWB", "DWordHybrid"):
            assert proto in out
        assert "paper-ladder" in out and "extra" in out

    def test_sweep_runs_beyond_paper_rungs(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--workloads", "stream",
                       "--protocols", "MDirtyWB", "DWordHybrid",
                       "--scale", "tiny", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MDirtyWB" in out and "DWordHybrid" in out
        assert len(ResultStore(tmp_path)) == 2

    def test_sweep_tiles_axis(self, tmp_path, capsys):
        """Acceptance: `sweep --tiles 4,16` runs end-to-end."""
        rc = cli_main(["sweep", "--workloads", "stream",
                       "--protocols", "MESI", "DeNovo",
                       "--tiles", "4,16", "--scale", "tiny",
                       "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 shapes (4,16 tiles)" in out and "= 4 cells" in out
        assert "  4t" in out and " 16t" in out
        assert len(ResultStore(tmp_path)) == 4

    def test_scaling_renders_figure_from_swept_results(self, tmp_path,
                                                       capsys):
        rc = cli_main(["scaling", "--workloads", "stream",
                       "--protocols", "MESI", "DeNovo",
                       "--tiles", "4", "16", "--scale", "tiny",
                       "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Core-count scaling" in out
        assert "Execution time" in out and "flit-hops" in out
        assert "MESI" in out and "DeNovo" in out

    def test_invalid_tiles_value_is_a_clean_cli_error(self, capsys):
        rc = cli_main(["sweep", "--tiles", "15", "--scale", "tiny"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--tiles 15" in err and "mesh_width squared" in err

    def test_figures_reject_multi_shape_tiles(self, capsys):
        rc = cli_main(["figures", "--workloads", "stream",
                       "--protocols", "MESI", "--tiles", "4,16",
                       "--scale", "tiny"])
        assert rc == 2
        assert "one machine shape" in capsys.readouterr().err

    def test_figures_without_mesi_baseline_rejected(self, capsys):
        """Figures normalize to MESI; fail before sweeping, not after."""
        rc = cli_main(["figures", "--workloads", "stream",
                       "--protocols", "DeNovo", "--scale", "tiny"])
        assert rc == 2
        assert "MESI" in capsys.readouterr().err

    def test_energy_over_filled_store_simulates_nothing(self, tmp_path,
                                                        monkeypatch, capsys):
        """`energy` derives from stored results post hoc: once the store
        holds the grid, it renders every preset without simulating."""
        grid = ["--workloads", "radix", "--protocols", "MESI", "DBypFull",
                "--scale", "tiny", "--cache-dir", str(tmp_path)]
        assert cli_main(["sweep", *grid]) == 0
        capsys.readouterr()
        from repro.runner import pool as pool_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("energy re-simulated a stored cell")

        monkeypatch.setattr(pool_mod, "simulate", no_simulation)
        rc = cli_main(["energy", *grid])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure E.1 [45nm]" in out and "Figure E.1 [22nm]" in out

    def test_clean_cache(self, tmp_path, capsys):
        cli_main(["sweep", "--workloads", "stream", "--protocols", "MESI",
                  "--scale", "tiny", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        rc = cli_main(["clean-cache", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "removed" in capsys.readouterr().out
        assert len(ResultStore(tmp_path)) == 0

    def test_negative_jobs_rejected(self, capsys):
        rc = cli_main(["sweep", "--scale", "tiny", "--workloads", "radix",
                       "--protocols", "MESI", "--jobs", "-7"])
        assert rc == 2
        assert ("--jobs must be >= 0 (0 = one per CPU)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["backends"], ["serve"], ["worker", "--connect", "127.0.0.1:1"],
        ["sweep", "--scheduler", "heap"], ["sweep", "--backend", "pool"],
        ["sweep", "--bind", "127.0.0.1:7421"],
        ["sweep", "--engine", "compiled"], ["bench"]])
    def test_removed_commands_and_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        """python -m repro works as an installed-style entry point."""
        import subprocess
        import sys
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                              + os.environ.get("PYTHONPATH", ""),
                   REPRO_CACHE_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--workloads", "stream", "--protocols", "MESI",
             "--scale", "tiny", "--jobs", "2"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        assert "sweep: 1 workloads x 1 protocols" in proc.stdout
