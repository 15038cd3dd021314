"""Self-checks of the benchmark's layer map and cProfile folding.

Run from the repository root::

    python3 -m pytest perfbench/selfcheck.py
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
sys.path[:0] = [str(HERE), str(PACKAGE.parent)]

import layers  # noqa: E402
import speed  # noqa: E402
from child import cell_record  # noqa: E402

LAYER_MAP = layers.LayerMap(PACKAGE, HERE)


def test_every_module_maps_to_a_named_layer():
    assert layers.unmapped_modules(PACKAGE) == []


def test_library_calls_are_charged_to_their_callers():
    bloom = (str(PACKAGE / "bloom" / "filters.py"), 31, "__init__")
    mesh = (str(PACKAGE / "network" / "mesh.py"), 90, "traverse")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    helper = ("/usr/lib/python3/random.py", 1, "helper")
    stats = {
        bloom: (1, 1, 0.5, 1.2, {}),
        mesh: (4, 4, 0.2, 0.3, {}),
        append: (30, 30, 0.4, 0.4, {bloom: (10, 10, 0.3, 0.3),
                                    mesh: (20, 20, 0.1, 0.1)}),
        # A recursive library function: the self-edge is not a caller.
        helper: (5, 5, 0.2, 0.2, {bloom: (5, 5, 0.2, 0.2),
                                  helper: (2, 0, 0.0, 0.0)}),
    }
    folded = layers.fold(stats, LAYER_MAP)
    assert folded["self_s"]["bloom"] == pytest.approx(1.0)
    assert folded["self_s"]["network"] == pytest.approx(0.3)
    assert folded["calls"]["bloom"] == 1 + 10 + 5
    assert folded["calls"]["network"] == 4 + 20
    assert sum(folded["self_s"].values()) == pytest.approx(
        folded["total_s"])


def test_traced_cell_folds_to_the_total_and_matches_untraced():
    from repro import ScaleConfig, build_workload, scaled_system, simulate
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    workload = build_workload("LU", scale)
    untraced = simulate(workload, "DBypFull", config)
    profile = cProfile.Profile()
    profile.enable()
    traced = simulate(workload, "DBypFull", config)
    profile.disable()
    folded = layers.fold(pstats.Stats(profile).stats, LAYER_MAP)
    assert sum(folded["self_s"].values()) == pytest.approx(
        folded["total_s"], rel=1e-9)
    assert folded["self_s"]["bloom"] > 0
    assert folded["self_s"]["other"] == 0
    assert cell_record(traced, "LU/DBypFull") == \
        cell_record(untraced, "LU/DBypFull")


def test_speed_scales_pieces_and_leaves_the_probes_out():
    ref = speed.REFERENCE_PROBE_S
    # Every probe takes twice the reference time, its loop three times
    # the loop's: a host at half speed, or at a third by the loop.
    probes = [(t, t + 3 * speed.REFERENCE_LOOP_S, t + 2 * ref)
              for t in (0.0, 1.0, 2.0, 3.0)]
    host = speed.Speed(probes)
    assert host.factor_at(1.5) == pytest.approx(0.5)
    # [0.5, 2.5] holds the probes that start at 1.0 and 2.0.
    assert host.scaled(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) * 0.5)
    assert host.scaled(0.2, 0.4) == pytest.approx(0.1)
    loop = speed.Speed(probes, loop_only=True)
    assert loop.scaled(0.2, 0.4) == pytest.approx(0.2 / 3)


def test_meter_probes_while_the_work_runs():
    with speed.Meter() as meter:
        end = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) > 2 * speed.BURST + 3
    starts = [start for start, _split, _end in meter.samples]
    assert starts == sorted(starts)


def test_cpu_clock_keeps_its_resolution_while_metering():
    # An armed CPU-time itimer would make the clock read in scheduler
    # ticks, and short intervals read 0.
    with speed.Meter():
        readings = [speed.clock() for _ in range(200)]
    repeats = sum(1 for a, b in zip(readings, readings[1:]) if a == b)
    assert repeats < 20
