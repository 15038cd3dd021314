"""Smoke tests: every example script runs and prints its key output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600)


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "DBypFull vs MESI" in proc.stdout
        assert "less traffic" in proc.stdout

    def test_protocol_ladder(self):
        proc = run_example("protocol_ladder.py", "LU")
        assert proc.returncode == 0, proc.stderr
        assert "MESI" in proc.stdout and "DBypFull" in proc.stdout

    def test_custom_workload(self):
        proc = run_example("custom_workload.py")
        assert proc.returncode == 0, proc.stderr
        assert "DFlexL1" in proc.stdout

    def test_bloom_tuning(self):
        proc = run_example("bloom_tuning.py")
        assert proc.returncode == 0, proc.stderr
        assert "direct" in proc.stdout

    def test_energy_breakdown(self):
        proc = run_example("energy_breakdown.py", "radix", "22nm")
        assert proc.returncode == 0, proc.stderr
        assert "Figure E.1 [22nm]" in proc.stdout
        assert "Energy & EDP (22nm preset)" in proc.stdout
        assert "DBypFull vs MESI [22nm]" in proc.stdout
        assert "EDP" in proc.stdout

    def test_trace_timeline(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_example("trace_timeline.py", "FFT", "DeNovo", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "run counters (measurement window)" in proc.stdout
        assert "timeline: FFT / DeNovo" in proc.stdout
        assert out.exists()
        import json
        assert json.loads(out.read_text())["traceEvents"]

    def test_core_scaling(self):
        proc = run_example("core_scaling.py", "stream", "4", "16")
        assert proc.returncode == 0, proc.stderr
        assert "Core-count scaling" in proc.stdout
        assert "4t" in proc.stdout and "16t" in proc.stdout
        assert "less traffic than MESI" in proc.stdout
