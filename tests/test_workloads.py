"""Structural tests for the six benchmark trace generators.

These validate the pattern features the paper's analysis depends on,
without running the simulator.
"""

import pytest

from repro.common.config import ScaleConfig, scaled_system
from repro.common.regions import Region, RegionTable
from repro.workloads import (
    GENERATORS, WORKLOAD_ORDER, build_all, build_workload)
from repro.workloads.barnes import BODY_STRIDE
from repro.workloads.trace import (
    OP_BARRIER, OP_COMPUTE, OP_LOAD, OP_STORE, Workload)

SCALE = ScaleConfig.tiny()


@pytest.fixture(scope="module")
def workloads():
    return build_all(SCALE)


class TestAllWorkloads:
    def test_order_matches_paper(self):
        assert WORKLOAD_ORDER == ("fluidanimate", "LU", "FFT", "radix",
                                  "barnes", "kD-tree")

    def test_sixteen_cores(self, workloads):
        for w in workloads.values():
            assert w.num_cores == 16

    def test_all_have_ops_on_every_core_at_default_scale(self):
        """At the default scale every core does real work.  (At the tiny
        unit-test scale LU's 2D block scatter can leave cores idle.)"""
        for name in WORKLOAD_ORDER:
            w = build_workload(name)
            for core, trace in enumerate(w.traces):
                mem_ops = sum(1 for k, _ in trace
                              if k in (OP_LOAD, OP_STORE))
                assert mem_ops > 0, f"{name} core {core} has no memory ops"

    def test_all_addresses_belong_to_regions(self, workloads):
        for name, w in workloads.items():
            for trace in w.traces:
                for kind, arg in trace:
                    if kind in (OP_LOAD, OP_STORE):
                        assert w.regions.find(arg) is not None, (
                            f"{name}: address {arg} outside all regions")

    def test_deterministic_generation(self):
        a = build_workload("barnes", SCALE)
        b = build_workload("barnes", SCALE)
        assert a.traces == b.traces

    def test_case_insensitive_lookup(self):
        w = build_workload("RADIX", SCALE)
        assert w.name == "radix"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_workload("linpack", SCALE)

    def test_warmup_barriers_set(self, workloads):
        for name, w in workloads.items():
            assert 0 < w.warmup_barriers < w.num_barriers, name

    def test_written_regions_per_barrier(self, workloads):
        for w in workloads.values():
            assert len(w.phase_written_regions) >= w.num_barriers


class TestBypassAnnotations:
    """The paper bypasses fluidanimate, FFT, radix and kD-tree only."""

    def test_bypass_apps_have_bypass_regions(self, workloads):
        for name in ("fluidanimate", "FFT", "radix", "kD-tree"):
            regions = workloads[name].regions
            assert any(r.bypass_l2 for r in regions), name

    def test_non_bypass_apps_have_none(self, workloads):
        for name in ("LU", "barnes"):
            regions = workloads[name].regions
            assert not any(r.bypass_l2 for r in regions), name


class TestFlexAnnotations:
    """Flex is applicable to barnes and kD-tree only (Section 5.2.1)."""

    def test_flex_apps(self, workloads):
        for name in ("barnes", "kD-tree"):
            regions = workloads[name].regions
            assert any(r.flex is not None for r in regions), name

    def test_non_flex_apps(self, workloads):
        for name in ("fluidanimate", "LU", "FFT", "radix"):
            regions = workloads[name].regions
            assert not any(r.flex is not None for r in regions), name

    def test_barnes_phase_updates_change_flex(self, workloads):
        """barnes re-announces its communication region between phases
        (the source of the paper's Excess waste)."""
        w = workloads["barnes"]
        updates = [u for us in w.phase_region_updates.values() for u in us]
        patterns = {u.flex.field_offsets for u in updates
                    if u.flex is not None}
        assert len(patterns) >= 2

    def test_barnes_stride_not_line_multiple(self):
        """The paper stresses barnes structs are not padded to lines."""
        assert BODY_STRIDE % 16 != 0


class TestWorkingSets:
    def test_bypass_apps_exceed_l2(self):
        """Bypass only matters when the data set exceeds the L2
        (paper Section 5.2.1); checked at the default small scale."""
        scale = ScaleConfig()
        cfg = scaled_system(scale)
        l2_words = cfg.l2_slice_kb * 1024 // 4 * cfg.num_tiles
        for name in ("FFT", "radix", "kD-tree", "fluidanimate"):
            w = build_workload(name, scale)
            footprint = sum(r.size_words for r in w.regions)
            assert footprint > l2_words, (
                f"{name} footprint {footprint} fits in L2 {l2_words}")

    def test_small_l2_apps_fit(self):
        """LU and barnes have small L2 working sets (Section 5.3)."""
        scale = ScaleConfig()
        cfg = scaled_system(scale)
        l2_words = cfg.l2_slice_kb * 1024 // 4 * cfg.num_tiles
        for name in ("LU", "barnes"):
            w = build_workload(name, scale)
            footprint = sum(r.size_words for r in w.regions)
            assert footprint <= 1.5 * l2_words, name


class TestRadixStructure:
    def test_permutation_spreads_over_buckets(self, workloads):
        """The permutation writes must target many distinct lines."""
        w = workloads["radix"]
        dst = next(r for r in w.regions if r.name == "radix.dst")
        store_lines = set()
        for trace in w.traces:
            for kind, arg in trace:
                if kind == OP_STORE and dst.contains(arg):
                    store_lines.add(arg // 16)
        assert len(store_lines) >= SCALE.radix_buckets / 8

    def test_keys_read_exactly_twice(self, workloads):
        """Histogram + permutation each read every key once per iteration
        (two iterations: warm-up + measured)."""
        w = workloads["radix"]
        keys = next(r for r in w.regions if r.name == "radix.keys")
        reads = {}
        for trace in w.traces:
            for kind, arg in trace:
                if kind == OP_LOAD and keys.contains(arg):
                    reads[arg] = reads.get(arg, 0) + 1
        # Iteration 1 reads keys (hist+permute); iteration 2 reads dst.
        assert set(reads.values()) == {2}


class TestLUStructure:
    def test_matrix_is_only_region(self, workloads):
        regions = list(workloads["LU"].regions)
        assert len(regions) == 1

    def test_triangular_reads_create_partial_line_use(self, workloads):
        """Some lines of the diagonal block are only partially read
        during the perimeter update (spatial waste source)."""
        w = build_workload("LU", SCALE)
        assert any(kind in (OP_LOAD, OP_STORE)
                   for t in w.traces for kind, _arg in t)


class TestFFTStructure:
    def test_transpose_writes_to_dst(self, workloads):
        w = workloads["FFT"]
        dst = next(r for r in w.regions if r.name == "fft.dst")
        writes = sum(1 for t in w.traces for k, a in t
                     if k == OP_STORE and dst.contains(a))
        # Transpose writes every dst word once; the following FFT phase
        # read-modify-writes them again.
        assert writes == SCALE.fft_points * 4 * 2


def _phase_violations(workload):
    """Data races and unannounced stores, phase by phase.

    Returns ``(racy, uncovered)``: the (word, phase) pairs a core stores
    while another core loads or stores the same word in that phase, and
    the (word, phase) pairs stored outside every region named by
    ``written_regions_at(phase)``.
    """
    storers, accessors = {}, {}
    for core, trace in enumerate(workload.traces):
        phase = 0
        for kind, arg in trace:
            if kind == OP_BARRIER:
                phase += 1
            elif kind in (OP_LOAD, OP_STORE):
                accessors.setdefault((arg, phase), set()).add(core)
                if kind == OP_STORE:
                    storers.setdefault((arg, phase), set()).add(core)
    racy = sorted(key for key, cores in storers.items()
                  if len(cores | accessors[key]) > 1)
    uncovered = []
    for word, phase in storers:
        region = workload.regions.find(word)
        if (region is None or region.region_id
                not in workload.written_regions_at(phase)):
            uncovered.append((word, phase))
    return racy, sorted(uncovered)


class TestDataRaceFree:
    """DeNovo's self-invalidation is correct only for data-race-free
    programs whose written regions are announced at each barrier: a
    core that reads a word another core wrote in an earlier phase
    relies on that word's region being self-invalidated."""

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_no_race_and_every_store_announced(self, name):
        racy, uncovered = _phase_violations(build_workload(name, SCALE))
        assert racy == [], f"{name}: racy (word, phase) pairs {racy[:5]}"
        assert uncovered == [], (
            f"{name}: stores outside the phase's written regions "
            f"{uncovered[:5]}")

    def test_checker_sees_a_race_and_an_unannounced_store(self):
        regions = RegionTable([Region(0, "a", 0, 16)])
        workload = Workload(
            name="racy", regions=regions,
            traces=[[(OP_STORE, 3), (OP_BARRIER, 0)],
                    [(OP_LOAD, 3), (OP_BARRIER, 0)]],
            phase_written_regions=[frozenset()])
        assert _phase_violations(workload) == ([(3, 0)], [(3, 0)])
