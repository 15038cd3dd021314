"""Unit tests for the protocol table and its name lookup."""

import pytest

from repro.common.config import (
    PROTOCOL_ORDER, PROTOCOLS, ProtocolConfig, protocol)


class TestRegistryContents:
    def test_paper_ladder_is_the_nine_rungs_in_figure_order(self):
        assert PROTOCOL_ORDER == (
            "MESI", "MMemL1", "DeNovo", "DFlexL1", "DValidateL2",
            "DMemL1", "DFlexL2", "DBypL2", "DBypFull")

    def test_beyond_paper_rungs_registered_after_the_ladder(self):
        names = tuple(PROTOCOLS)
        assert names[:9] == PROTOCOL_ORDER
        assert names[9:] == ("MDirtyWB", "DWordHybrid")

    def test_new_rung_flag_combinations(self):
        mdirty = protocol("MDirtyWB")
        assert mdirty.kind == "mesi" and mdirty.dirty_wb_only
        hybrid = protocol("DWordHybrid")
        assert hybrid.kind == "denovo"
        assert hybrid.l2_dirty_wb_only and not hybrid.l2_write_validate

    def test_order_stable_across_lookups(self):
        assert tuple(PROTOCOLS) == tuple(PROTOCOLS)
        protocol("DBypFull")
        assert tuple(PROTOCOLS)[:9] == PROTOCOL_ORDER
        assert all(PROTOCOLS[name].name == name for name in PROTOCOLS)


class TestLookup:
    def test_unknown_protocol_raises_keyerror(self):
        with pytest.raises(KeyError):
            protocol("MOESI")

    def test_near_miss_suggestion_in_error(self):
        with pytest.raises(KeyError, match="did you mean"):
            protocol("MESl")

    def test_suggest_finds_close_matches(self):
        with pytest.raises(KeyError, match="did you mean MESI"):
            protocol("MESl")
        with pytest.raises(KeyError, match="did you mean DBypFull"):
            protocol("dbypfull")

    def test_suggest_handles_hopeless_input(self):
        with pytest.raises(KeyError) as info:
            protocol("qqqqqqqq")
        message = info.value.args[0]
        assert message.startswith("unknown protocol 'qqqqqqqq'; known: MESI")
        assert "did you mean" not in message


class TestProtocolConfigValidation:
    def test_dirty_wb_only_rejected_on_denovo(self):
        with pytest.raises(ValueError, match="dirty_wb_only"):
            ProtocolConfig(name="bad", kind="denovo", dirty_wb_only=True)

    def test_dirty_wb_only_allowed_on_mesi(self):
        cfg = ProtocolConfig(name="ok", kind="mesi", dirty_wb_only=True)
        assert cfg.enabled_flags() == ("dirty_wb_only",)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="token-coherence"):
            ProtocolConfig(name="x", kind="token-coherence")
