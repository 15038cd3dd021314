"""Unit tests for system/protocol/scale configuration."""

from dataclasses import fields

import pytest

from repro.coherence.kernel import L1_ASSOC, L2_ASSOC
from repro.common.config import (
    DEFAULT_SYSTEM, PROTOCOL_ORDER, PROTOCOLS, ProtocolConfig, ScaleConfig,
    SystemConfig, corner_tiles, protocol, scaled_system)

#: Table 4.1 parameters that are constants of the modules modelling
#: them, not ``SystemConfig`` fields, with a value the paper's machine
#: does not have.
FIXED_PARAMETERS = {
    "mesh_width": 3, "core_ghz": 3.0, "l1_assoc": 4, "l2_assoc": 8,
    "link_bytes": 32, "link_latency": 1, "max_data_flits": 8,
    "num_mem_controllers": 8, "dram_banks": 4, "dram_ranks": 1,
    "dram_t_rcd": 10, "dram_t_rp": 10, "dram_t_cl": 10,
    "dram_t_burst": 8, "store_buffer_entries": 16,
    "write_combine_timeout": 100, "barrier_release_cost": 0,
    "bloom_hashes": 2,
}


class TestSystemConfig:
    def test_paper_defaults(self):
        cfg = SystemConfig()
        assert cfg.num_tiles == 16
        assert cfg.l1_kb == 32
        assert cfg.l2_slice_kb == 256
        assert cfg.line_bytes == 64
        assert cfg.mesh_width == 4
        assert [f.name for f in fields(SystemConfig)] == [
            "num_tiles", "l1_kb", "l2_slice_kb", "write_combine_entries",
            "bloom_entries", "bloom_filters_per_slice"]

    def test_derived_geometry(self):
        cfg = SystemConfig()
        assert cfg.l1_lines == 512            # 32KB / 64B
        assert cfg.l1_lines // L1_ASSOC == 64     # 8-way sets
        assert cfg.l2_slice_lines == 4096     # 256KB / 64B
        assert cfg.l2_slice_lines // L2_ASSOC == 256

    def test_line_and_word_size_are_not_settings(self):
        """The address layout fixes 64-byte lines of 4-byte words; a
        config cannot resize the caches away from what the protocols
        move."""
        with pytest.raises(TypeError):
            SystemConfig(line_bytes=128)
        with pytest.raises(TypeError):
            SystemConfig(word_bytes=8)
        cfg = SystemConfig()
        assert (cfg.line_bytes, cfg.word_bytes) == (64, 4)
        with pytest.raises(AttributeError):
            cfg.line_bytes = 128
        # Nor are the other fixed Table 4.1 parameters.
        for name, value in FIXED_PARAMETERS.items():
            with pytest.raises(TypeError):
                SystemConfig(**{name: value})
        with pytest.raises(AttributeError):
            cfg.mesh_width = 3

    def test_mesh_must_be_square(self):
        with pytest.raises(ValueError):
            SystemConfig(num_tiles=15)

    def test_corner_tiles_4x4(self):
        assert corner_tiles(4) == (0, 3, 12, 15)

    def test_corner_tiles_2x2(self):
        assert corner_tiles(2) == (0, 1, 2, 3)


class TestProtocolConfigs:
    def test_nine_protocols_in_paper_order(self):
        assert PROTOCOL_ORDER == (
            "MESI", "MMemL1", "DeNovo", "DFlexL1", "DValidateL2",
            "DMemL1", "DFlexL2", "DBypL2", "DBypFull")

    def test_mesi_baseline_has_no_optimizations(self):
        p = protocol("MESI")
        assert p.kind == "mesi"
        assert not p.mem_to_l1
        assert not p.flex_l1

    def test_mmeml1(self):
        p = protocol("MMemL1")
        assert p.kind == "mesi" and p.mem_to_l1

    def test_denovo_baseline(self):
        p = protocol("DeNovo")
        assert p.kind == "denovo"
        assert not (p.flex_l1 or p.l2_write_validate or p.mem_to_l1)

    def test_dflexl1_only_adds_flex(self):
        p = protocol("DFlexL1")
        assert p.flex_l1 and not p.flex_l2
        assert not p.l2_write_validate

    def test_dvalidatel2(self):
        p = protocol("DValidateL2")
        assert p.l2_write_validate and p.l2_dirty_wb_only
        assert not p.flex_l1 and not p.mem_to_l1

    def test_feature_ladder_is_monotone(self):
        """Each protocol in the DeNovo ladder adds features, never removes."""
        ladder = ("DValidateL2", "DMemL1", "DFlexL2", "DBypL2", "DBypFull")
        flags = ("l2_write_validate", "l2_dirty_wb_only", "mem_to_l1",
                 "flex_l1", "flex_l2", "bypass_l2_response",
                 "bypass_l2_request")
        for earlier, later in zip(ladder, ladder[1:]):
            pe, pl = protocol(earlier), protocol(later)
            for flag in flags:
                assert not (getattr(pe, flag) and not getattr(pl, flag)), (
                    f"{later} dropped {flag} present in {earlier}")

    def test_dbypfull_has_everything(self):
        p = protocol("DBypFull")
        assert all((p.l2_write_validate, p.l2_dirty_wb_only, p.mem_to_l1,
                    p.flex_l1, p.flex_l2, p.bypass_l2_response,
                    p.bypass_l2_request))

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            protocol("MOESI")

    def test_mesi_cannot_take_denovo_flags(self):
        with pytest.raises(ValueError):
            ProtocolConfig(name="bad", kind="mesi", flex_l1=True)

    def test_flex_l2_requires_flex_l1(self):
        with pytest.raises(ValueError):
            ProtocolConfig(name="bad", kind="denovo", flex_l2=True)

    def test_request_bypass_requires_response_bypass(self):
        with pytest.raises(ValueError):
            ProtocolConfig(name="bad", kind="denovo",
                           bypass_l2_request=True)


class TestScaleConfig:
    def test_paper_scale_matches_table_4_2(self):
        sc = ScaleConfig.paper()
        assert sc.lu_matrix == 512
        assert sc.fft_points == 262_144
        assert sc.radix_keys == 4_000_000
        assert sc.radix_buckets == 1024
        assert sc.barnes_bodies == 16_384
        with pytest.raises(TypeError):       # 16x16 at every scale
            ScaleConfig(lu_block=8)

    def test_paper_scale_keeps_paper_caches(self):
        cfg = scaled_system(ScaleConfig.paper())
        assert cfg.l1_kb == 32 and cfg.l2_slice_kb == 256

    def test_small_scale_shrinks_caches(self):
        cfg = scaled_system(ScaleConfig())
        assert cfg.l1_kb < 32 and cfg.l2_slice_kb < 256

    def test_radix_buckets_exceed_l1_lines_at_every_scale(self):
        """The paper's radix evict-waste effect requires more write
        targets than the L1 holds lines."""
        for scale in (ScaleConfig(), ScaleConfig.tiny(),
                      ScaleConfig.paper()):
            cfg = scaled_system(scale)
            assert scale.radix_buckets > cfg.l1_lines
