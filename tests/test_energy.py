"""Energy subsystem tests: conservation audits and model behaviour.

The heart of this file is the per-rung conservation audit: the
flit-hops charged to NoC energy must *exactly* equal the finalized
``TrafficLedger`` totals (and the mesh's independent flit-hop counter),
and DRAM energy events must reconcile with the FR-FCFS model's command
counts.  Radix carries a warm-up iteration, so the audit also proves
the energy counters follow the post-warm-up measurement window.
"""

import math

import pytest

from repro.common.config import (
    ENERGY_MODELS, EnergyModelConfig, PROTOCOL_ORDER, ScaleConfig,
    energy_model, protocol, scaled_system)
from repro.core.core import CORE_GHZ
from repro.core.simulator import simulate
from repro.core.system import System
from repro.energy import COMPONENTS, EnergyStats, compute_energy
from repro.network.traffic import split_flit_hops
from repro.runner.store import result_from_dict, result_to_dict
from repro.workloads import build_workload

SCALE = ScaleConfig.tiny()
CONFIG = scaled_system(SCALE)


@pytest.fixture(scope="module")
def ladder_results():
    """Tiny radix under every paper rung (warm-up exercises the reset)."""
    workload = build_workload("radix", SCALE)
    return {proto: simulate(workload, proto, CONFIG)
            for proto in PROTOCOL_ORDER}


class TestConservation:
    def test_noc_energy_charge_equals_ledger_totals_per_rung(
            self, ladder_results):
        """Data+control flit-hops charged to NoC energy == ledger totals."""
        for proto, result in ladder_results.items():
            stats = compute_energy(result, "45nm", CONFIG)
            ledger_total = result.traffic_total()
            charged = stats.detail["noc_flit_hops"]
            assert charged == pytest.approx(ledger_total, abs=1e-9), proto
            data, ctl = split_flit_hops(result.traffic)
            assert data + ctl == pytest.approx(ledger_total, abs=1e-9), proto
            em = energy_model("45nm")
            per_hop = (em.router_flit_hop_pj + em.link_flit_hop_pj) * 1e-12
            assert stats.dynamic["noc"] == pytest.approx(
                ledger_total * per_hop), proto

    def test_mesh_counter_reconciles_with_ledger_per_rung(
            self, ladder_results):
        """The mesh's independent flit-hop count matches the ledger —
        including across radix's warm-up."""
        for proto, result in ladder_results.items():
            assert result.energy_counters["noc_flit_hops"] == pytest.approx(
                result.traffic_total(), abs=1e-9), proto

    def test_dram_energy_events_reconcile_with_commands_per_rung(
            self, ladder_results):
        em = energy_model("45nm")
        for proto, result in ladder_results.items():
            stats = compute_energy(result, em, CONFIG)
            dram = result.dram_stats
            counters = result.energy_counters
            # Command-count invariants of the FR-FCFS model (whole run).
            assert dram["activates"] == dram["row_misses"], proto
            assert dram["precharges"] <= dram["activates"], proto
            assert (dram["row_hits"] + dram["row_misses"]
                    == dram["reads"] + dram["writes"]), proto
            # The window-scoped counters energy charges from can never
            # exceed the whole-run command counts.
            for key in ("reads", "writes", "activates", "precharges"):
                assert 0 <= counters[f"dram_{key}"] <= dram[key], proto
            # Energy lines are exactly window commands x per-event cost.
            accesses = counters["dram_reads"] + counters["dram_writes"]
            assert stats.detail["dram_activates"] == pytest.approx(
                counters["dram_activates"] * em.dram_activate_pj
                * 1e-12), proto
            assert stats.detail["dram_precharges"] == pytest.approx(
                counters["dram_precharges"] * em.dram_precharge_pj
                * 1e-12), proto
            assert stats.detail["dram_accesses"] == pytest.approx(
                accesses * em.dram_access_pj * 1e-12), proto
            assert stats.detail["mc_requests"] == pytest.approx(
                accesses * em.mc_request_pj * 1e-12), proto

    def test_dram_energy_follows_the_measurement_window(
            self, ladder_results):
        """Radix warms up a full iteration; the warm-up's DRAM fetches
        must not be charged energy (MESI refetches nothing after
        warm-up, so its window command counts are far below the run
        totals), while a run without warm-up is charged every event."""
        result = ladder_results["MESI"]
        counters = result.energy_counters
        whole_run = result.dram_stats["reads"] + result.dram_stats["writes"]
        window = counters["dram_reads"] + counters["dram_writes"]
        assert window < whole_run
        # A run without warm-up charges every event: each of the 17
        # counters equals the components' own count, in order.
        import dataclasses
        workload = dataclasses.replace(build_workload("radix", SCALE),
                                       warmup_barriers=0)
        system = System(workload, protocol("DBypFull"), CONFIG)
        result = system.run()
        core = system.proto_sys
        own = {}
        for prefix, caches in (("l1", core.l1), ("l2", core.l2)):
            for event in ("probes", "installs", "evictions"):
                own[f"{prefix}_{event}"] = sum(
                    getattr(cache, f"stat_{event}") for cache in caches)
        for prefix, filters, events in (
                ("bloom_slice", core.slice_blooms, ("checks", "updates")),
                ("bloom_shadow", core.l1_blooms,
                 ("checks", "inserts", "installs"))):
            for event in events:
                own[f"{prefix}_{event}"] = sum(
                    getattr(f, f"stat_{event}") for f in filters)
        own["noc_packets"] = system.ctx.mesh.stat_packets
        own["noc_flit_hops"] = system.ctx.mesh.stat_flit_hops
        for key in ("reads", "writes", "activates", "precharges"):
            own[f"dram_{key}"] = sum(getattr(dram, key)
                                     for dram in system.ctx.drams.values())
        assert len(own) == 17
        assert own["bloom_shadow_checks"] > 0
        assert list(result.energy_counters.items()) == list(own.items())

    def test_components_count_from_cycle_zero(self):
        """Nothing resets a component's counters at the warm-up barrier:
        the mesh and the L1s keep counting, and only the reported
        window leaves the warm-up out."""
        system = System(build_workload("radix", SCALE), protocol("MESI"),
                        CONFIG)
        counters = system.run().energy_counters
        assert system.ctx.mesh.stat_packets > counters["noc_packets"]
        assert (sum(cache.stat_probes for cache in system.proto_sys.l1)
                > counters["l1_probes"])

    def test_counters_present_and_sane(self, ladder_results):
        for proto, result in ladder_results.items():
            counters = result.energy_counters
            assert counters["l1_probes"] > 0, proto
            assert counters["l2_probes"] > 0, proto
            assert counters["noc_packets"] > 0, proto
            assert all(v >= 0 for v in counters.values()), proto
        # Bloom activity exists exactly on the request-bypass rung.
        assert ladder_results["DBypFull"].energy_counters[
            "bloom_shadow_checks"] > 0
        assert "bloom_shadow_checks" not in ladder_results[
            "MESI"].energy_counters


class TestEnergyModel:
    def test_breakdown_covers_all_components(self, ladder_results):
        stats = compute_energy(ladder_results["MESI"], "45nm", CONFIG)
        assert set(stats.dynamic) == set(COMPONENTS)
        assert set(stats.static) == set(COMPONENTS)
        assert stats.total == pytest.approx(
            sum(stats.components().values()))
        assert stats.total > 0

    def test_derived_metrics(self, ladder_results):
        stats = compute_energy(ladder_results["MESI"], "45nm", CONFIG)
        assert stats.exec_seconds == pytest.approx(
            ladder_results["MESI"].exec_cycles / (CORE_GHZ * 1e9))
        assert stats.edp == pytest.approx(stats.total * stats.exec_seconds)
        assert stats.ed2p == pytest.approx(
            stats.total * stats.exec_seconds ** 2)
        assert stats.energy_per_useful_word > 0

    def test_energy_per_useful_word_undefined_without_used_words(self):
        """A run whose cores use no L1 word has no energy per useful
        word: the table says n/a rather than a free 0.00."""
        from repro.analysis.energy import edp_table
        result = simulate(build_workload("stream", SCALE), "MESI", CONFIG)
        assert result.used_words("l1") == 0
        stats = compute_energy(result, "45nm", CONFIG)
        assert stats.total > 0
        assert stats.energy_per_useful_word is None
        row = edp_table({"stream": {"MESI": result}}, "45nm",
                        CONFIG).splitlines()[-1]
        assert row.startswith("  MESI") and row.endswith(" n/a")

    def test_presets_scale_dynamic_energy(self, ladder_results):
        result = ladder_results["MESI"]
        e45 = compute_energy(result, "45nm", CONFIG)
        e22 = compute_energy(result, "22nm", CONFIG)
        for component in COMPONENTS:
            assert e22.dynamic[component] <= e45.dynamic[component]
        assert e22.total < e45.total

    def test_energy_derivable_from_stored_result(self, ladder_results):
        """Round-tripping through the store changes nothing — energy is
        post-hoc arithmetic, no re-simulation required."""
        result = ladder_results["DBypFull"]
        restored = result_from_dict(result_to_dict(result))
        direct = compute_energy(result, "45nm", CONFIG)
        derived = compute_energy(restored, "45nm", CONFIG)
        assert derived.total == pytest.approx(direct.total)
        assert derived.components() == direct.components()

    def test_validation_rejects_nan_and_negative(self):
        stats = EnergyStats(
            workload="w", protocol="p", model="m", exec_seconds=1.0,
            dynamic={c: 0.0 for c in COMPONENTS},
            static={c: 0.0 for c in COMPONENTS})
        stats.validate()
        stats.dynamic["noc"] = float("nan")
        with pytest.raises(ValueError, match="noc"):
            stats.validate()
        stats.dynamic["noc"] = -1.0
        with pytest.raises(ValueError, match="noc"):
            stats.validate()

    def test_preset_registry_lookup_and_suggestions(self):
        assert tuple(ENERGY_MODELS) == ("45nm", "22nm")
        assert energy_model("45nm").process_nm == 45
        with pytest.raises(KeyError, match="did you mean"):
            energy_model("45mn")
        with pytest.raises(ValueError, match="non-negative"):
            EnergyModelConfig(
                name="bad", process_nm=1, core_cycle_pj=-1.0,
                l1_probe_pj=0, l1_word_pj=0, l2_probe_pj=0, l2_word_pj=0,
                bloom_op_pj=0, router_flit_hop_pj=0, link_flit_hop_pj=0,
                mc_request_pj=0, dram_activate_pj=0, dram_precharge_pj=0,
                dram_access_pj=0, core_leak_mw=0, l1_leak_mw=0,
                l2_leak_mw=0, noc_leak_mw=0, mc_leak_mw=0, dram_leak_mw=0)

    def test_leakage_scales_with_machine_shape(self, ladder_results):
        result = ladder_results["MESI"]
        small = compute_energy(result, "45nm", scaled_system(SCALE,
                                                             num_tiles=4))
        big = compute_energy(result, "45nm", scaled_system(SCALE,
                                                           num_tiles=64))
        # Tile-count-scaled components grow with the machine; the MC and
        # DRAM components scale with the controller count, which stays
        # at four across these shapes.
        for component in ("core", "l1", "l2", "noc"):
            assert big.static[component] > small.static[component]
        for component in ("mc", "dram"):
            assert big.static[component] == pytest.approx(
                small.static[component])


class TestEnergyFigure:
    def test_figure_normalizes_to_mesi(self, ladder_results):
        from repro.analysis.energy import figure_energy
        grid = {"radix": ladder_results}
        fig = figure_energy(grid, "45nm", CONFIG)
        assert fig.bar_total("radix", "MESI") == pytest.approx(100.0)
        for proto in PROTOCOL_ORDER:
            assert fig.bar_total("radix", proto) > 0
            for label in fig.segment_labels:
                value = fig.segment("radix", proto, label)
                assert math.isfinite(value) and value >= 0

    def test_edp_table_and_report_section_render_for_both_presets(
            self, ladder_results):
        from repro.analysis.energy import edp_table, report_section
        grid = {"radix": ladder_results}
        section = report_section(grid, config=CONFIG)
        assert section.startswith("## Energy and EDP")
        for preset in ENERGY_MODELS:
            assert f"[{preset}]" in section
            assert f"({preset} preset)" in edp_table(grid, preset, CONFIG)
        assert "DBypFull vs MESI" in section

    def test_scaling_figure_has_energy_metric(self):
        from repro.analysis.scaling import figure_scaling
        scale = ScaleConfig.tiny()
        shapes = {}
        for tiles in (4, 16):
            w = build_workload("stream", scale, num_cores=tiles)
            r = simulate(w, "MESI", scaled_system(scale, num_tiles=tiles))
            shapes[tiles] = {"stream": {"MESI": r}}
        fig = figure_scaling(shapes)
        assert fig.metric("stream", "MESI", 4, "energy") > 0
        assert fig.metric("stream", "MESI", 16, "energy") > 0
        assert "Total energy" in fig.render()
