"""Unit tests for the perf-record compare gate (repro.bench)."""

import json

import pytest

from repro.bench import (
    REGRESSION_THRESHOLD, SCHEMA_VERSION, DirtyBaseline, RecordMismatch,
    compare_records, write_record)


def _cell(key, eps):
    # Cell keys are (workload, protocol, tiles).
    return {"workload": key[0], "protocol": key[1], "num_tiles": key[2],
            "seconds": 1.0, "events": int(eps),
            "events_per_second": eps, "exec_cycles": 1}


def _record(eps_by_cell, schema_version=SCHEMA_VERSION,
            bench="sweep_radix_tiny", git_describe="test"):
    return {
        "bench": bench,
        "schema_version": schema_version,
        "git_describe": git_describe,
        "python": "3.x",
        "cells": [_cell(key, eps) for key, eps in eps_by_cell.items()],
    }


CELLS = {("radix", "MESI", 16): 50_000.0,
         ("radix", "DeNovo", 16): 30_000.0}


class TestCompareRecords:
    def test_identical_records_pass(self):
        outcome = compare_records(_record(CELLS), _record(CELLS))
        assert outcome["ok"]
        assert len(outcome["cells"]) == len(CELLS)

    def test_speedup_passes(self):
        faster = {k: v * 2 for k, v in CELLS.items()}
        outcome = compare_records(_record(CELLS), _record(faster))
        assert outcome["ok"]
        assert all(c["ratio"] == 2.0 for c in outcome["cells"])

    def test_small_regression_warns_but_passes(self):
        slower = {k: v * (1 - REGRESSION_THRESHOLD / 2)
                  for k, v in CELLS.items()}
        outcome = compare_records(_record(CELLS), _record(slower))
        assert outcome["ok"]
        assert any(line.startswith("warn") for line in outcome["lines"])

    def test_large_regression_fails(self):
        slower = dict(CELLS)
        slower[("radix", "MESI", 16)] = CELLS[("radix", "MESI", 16)] * 0.5
        outcome = compare_records(_record(CELLS), _record(slower))
        assert not outcome["ok"]
        assert any(line.startswith("FAIL") for line in outcome["lines"])

    def test_missing_cell_fails(self):
        partial = {("radix", "MESI", 16): 50_000.0}
        outcome = compare_records(_record(CELLS), _record(partial))
        assert not outcome["ok"]

    def test_extra_cell_is_noted_not_failed(self):
        extra = dict(CELLS)
        extra[("radix", "MESI", 4)] = 60_000.0
        outcome = compare_records(_record(CELLS), _record(extra))
        assert outcome["ok"]
        assert any(line.startswith("note") for line in outcome["lines"])

    def test_refuses_missing_schema_version(self):
        legacy = _record(CELLS)
        del legacy["schema_version"]
        with pytest.raises(RecordMismatch, match="schema_version"):
            compare_records(legacy, _record(CELLS))

    def test_refuses_mismatched_schema_version(self):
        with pytest.raises(RecordMismatch, match="schema_version"):
            compare_records(_record(CELLS, schema_version=SCHEMA_VERSION + 1),
                            _record(CELLS))

    def test_refuses_different_bench_suite(self):
        with pytest.raises(RecordMismatch, match="different suites"):
            compare_records(_record(CELLS, bench="other"), _record(CELLS))

    def test_custom_threshold(self):
        slower = {k: v * 0.9 for k, v in CELLS.items()}
        strict = compare_records(_record(CELLS), _record(slower),
                                 threshold=0.05)
        assert not strict["ok"]
        lax = compare_records(_record(CELLS), _record(slower),
                              threshold=0.2)
        assert lax["ok"]


class TestWriteRecord:
    """The committed baseline must never be stamped from a dirty tree."""

    def test_dirty_describe_refused_for_committed_baseline(self, tmp_path):
        record = _record(CELLS, git_describe="abc1234-dirty")
        with pytest.raises(DirtyBaseline, match="commit the tree first"):
            write_record(record, str(tmp_path / "BENCH_sweep.json"))
        assert not (tmp_path / "BENCH_sweep.json").exists()

    def test_unknown_describe_refused_for_committed_baseline(self, tmp_path):
        record = _record(CELLS, git_describe="unknown")
        with pytest.raises(DirtyBaseline):
            write_record(record, str(tmp_path / "BENCH_sweep.json"))

    def test_clean_describe_writes_committed_baseline(self, tmp_path):
        record = _record(CELLS, git_describe="abc1234")
        path = tmp_path / "BENCH_sweep.json"
        write_record(record, str(path))
        assert json.loads(path.read_text()) == record

    def test_scratch_path_allows_dirty_describe(self, tmp_path):
        record = _record(CELLS, git_describe="abc1234-dirty")
        path = tmp_path / "BENCH_scratch.json"
        write_record(record, str(path))
        assert json.loads(path.read_text()) == record


class TestGitDescribe:
    """git_describe must degrade to "unknown" cleanly, never crash."""

    def test_git_missing_returns_unknown(self, monkeypatch):
        import subprocess
        from repro import bench

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert bench.git_describe() == "unknown"

    def test_not_a_repo_returns_unknown(self, monkeypatch):
        import subprocess
        from repro import bench

        def not_a_repo(*args, **kwargs):
            return subprocess.CompletedProcess(
                args[0], returncode=128, stdout="",
                stderr="fatal: not a git repository")

        monkeypatch.setattr(subprocess, "run", not_a_repo)
        assert bench.git_describe() == "unknown"

    def test_empty_output_returns_unknown(self, monkeypatch):
        import subprocess
        from repro import bench
        monkeypatch.setattr(
            subprocess, "run",
            lambda *a, **k: subprocess.CompletedProcess(
                a[0], returncode=0, stdout="\n", stderr=""))
        assert bench.git_describe() == "unknown"

    def test_success_passes_describe_through(self, monkeypatch):
        import subprocess
        from repro import bench
        seen = {}

        def ok(*args, **kwargs):
            seen.update(kwargs)
            return subprocess.CompletedProcess(
                args[0], returncode=0, stdout="abc1234-dirty\n", stderr="")

        monkeypatch.setattr(subprocess, "run", ok)
        assert bench.git_describe() == "abc1234-dirty"
        # Hardening: stderr captured (no terminal noise), cwd pinned to
        # the package (not the caller's directory), stdin closed.
        assert seen["capture_output"] is True
        assert seen["cwd"]
        assert seen["stdin"] is subprocess.DEVNULL

    def test_timeout_returns_unknown(self, monkeypatch):
        import subprocess
        from repro import bench

        def too_slow(*args, **kwargs):
            raise subprocess.TimeoutExpired(args[0], 10)

        monkeypatch.setattr(subprocess, "run", too_slow)
        assert bench.git_describe() == "unknown"
