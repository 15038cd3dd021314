"""Tests for the grid sweep and the aggregate metrics."""

import pytest

from repro.analysis.experiments import (
    average_exec_time_reduction, average_traffic_reduction,
    exec_time_reduction, traffic_reduction)
from repro.common.config import ScaleConfig, scaled_system
from repro.core.stats import RunResult


def fake_result(workload, protocol, traffic_scale, exec_cycles):
    from repro.network import traffic as T
    from repro.waste.profiler import Category
    traffic = {
        T.LD: {b: 0.0 for b in T.LDST_BUCKETS},
        T.ST: {b: 0.0 for b in T.LDST_BUCKETS},
        T.WB: {b: 0.0 for b in T.WB_BUCKETS},
        T.OVH: {b: 0.0 for b in T.OVH_BUCKETS},
    }
    traffic[T.LD][T.REQ_CTL] = traffic_scale
    return RunResult(
        workload=workload, protocol=protocol, traffic=traffic,
        l1_waste={c: 0 for c in Category},
        l2_waste={c: 0 for c in Category},
        mem_waste={c: 0 for c in Category},
        time={b: 0.0 for b in ("busy", "onchip", "to_mc", "mem",
                               "from_mc", "sync")},
        exec_cycles=exec_cycles, events=1)


@pytest.fixture
def toy_grid():
    return {
        "app1": {"MESI": fake_result("app1", "MESI", 100, 1000),
                 "DBypFull": fake_result("app1", "DBypFull", 60, 900)},
        "app2": {"MESI": fake_result("app2", "MESI", 200, 2000),
                 "DBypFull": fake_result("app2", "DBypFull", 100, 1600)},
    }


class TestAggregates:
    def test_traffic_reduction_per_workload(self, toy_grid):
        red = traffic_reduction(toy_grid, "DBypFull", "MESI")
        assert red["app1"] == pytest.approx(0.4)
        assert red["app2"] == pytest.approx(0.5)

    def test_average_traffic_reduction(self, toy_grid):
        assert average_traffic_reduction(
            toy_grid, "DBypFull", "MESI") == pytest.approx(0.45)

    def test_exec_time_reduction(self, toy_grid):
        red = exec_time_reduction(toy_grid, "DBypFull", "MESI")
        assert red["app1"] == pytest.approx(0.1)
        assert red["app2"] == pytest.approx(0.2)
        assert average_exec_time_reduction(
            toy_grid, "DBypFull", "MESI") == pytest.approx(0.15)

    def test_reduction_of_baseline_is_zero(self, toy_grid):
        assert average_traffic_reduction(
            toy_grid, "MESI", "MESI") == pytest.approx(0.0)


class TestRunGrid:
    def test_grid_runs_and_caches(self, tmp_path, monkeypatch):
        from repro.runner import sweep_grid
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = ScaleConfig.tiny()
        grid = sweep_grid(workloads=("LU",), protocols=("MESI", "DeNovo"),
                          scale=scale)
        assert set(grid) == {"LU"}
        assert set(grid["LU"]) == {"MESI", "DeNovo"}
        # Cached on disk, under the runner's shape-tagged store key.
        from repro.runner import JobSpec, ResultStore, config_key
        key = JobSpec(workload="LU", protocol="MESI", scale=scale,
                      config=scaled_system(scale)).store_key()
        assert key.startswith(config_key(scale, scaled_system(scale)))
        assert ResultStore().load("LU", "MESI", key) is not None
        # Second call is served from the store (no simulation): just
        # verify it returns equal numbers.
        again = sweep_grid(workloads=("LU",), protocols=("MESI", "DeNovo"),
                           scale=scale)
        assert (again["LU"]["MESI"].traffic
                == grid["LU"]["MESI"].traffic)
