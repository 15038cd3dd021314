"""Latency & stall attribution tests (repro.obs.attrib).

The load-bearing guarantees:

* **non-perturbation** — a run with attribution enabled returns a
  ``RunResult`` byte-identical to the golden tiny-grid snapshot, on
  every rung of the ladder (the collector only reads observational
  checkpoints; it schedules nothing);
* **conservation** — the three audits hold exactly on every rung:
  lifecycle segments sum to end-to-end latency, per-core
  ``compute + stalls == TimeStats.total()``, and the observed DRAM
  commands reconcile with the channels' ``window_commands()``.
"""

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.common.config import PROTOCOL_ORDER, ScaleConfig, scaled_system
from repro.core.simulator import simulate
from repro.obs import AttribCollector, MetricsHub, ObsSession, SEGMENTS
from repro.runner.store import result_to_dict
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "grid_tiny.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["grid"]

SCALE = ScaleConfig.tiny()

# One attributed run per rung, shared across the test class (pure
# memoization: simulation is deterministic).
_OBSERVED: Dict[str, tuple] = {}


def _observed(proto: str):
    cell = _OBSERVED.get(proto)
    if cell is None:
        workload = build_workload("radix", SCALE)
        obs = ObsSession(trace=False)
        result = simulate(workload, proto, scaled_system(SCALE), obs=obs)
        cell = _OBSERVED[proto] = (result, obs)
    return cell


@pytest.mark.parametrize("proto", PROTOCOL_ORDER)
def test_attributed_run_stays_golden(proto):
    """Attribution on: the RunResult must still match the golden grid."""
    result, _obs = _observed(proto)
    assert result_to_dict(result) == GOLDEN["radix"][proto], (
        f"radix x {proto} diverged from the golden result with "
        f"attribution enabled; the collector perturbed the simulation")


@pytest.mark.parametrize("proto", PROTOCOL_ORDER)
def test_conservation_audits_pass_every_rung(proto):
    result, obs = _observed(proto)
    audits = obs.attrib.audits()
    assert audits["segments"]["ok"], audits["segments"]
    assert audits["cycles"]["ok"], [c for c in audits["cycles"]["per_core"]
                                    if not c["ok"]]
    assert audits["dram"]["ok"], audits["dram"]
    assert audits["ok"]
    # The accounting is not vacuous: misses were recorded and the
    # cores' stall cycles cover everything busy does not.
    assert audits["segments"]["e2e_cycles"] > 0
    total = sum(c["total"] for c in audits["cycles"]["per_core"])
    busy = sum(c["busy"] for c in audits["cycles"]["per_core"])
    assert total > busy > 0


def test_report_shape_and_stalls_figure():
    result, obs = _observed("MESI")
    profile = obs.attrib.report()
    assert profile["protocol"] == "MESI"
    assert profile["workload"] == "radix"
    assert set(profile["stalls"]["total"]) == {
        "l1_wait", "l2_home", "remote_l1", "dram", "write_buffer",
        "barrier"}
    assert len(profile["stalls"]["per_core"]) == 16
    json.dumps(profile)                  # must be JSON-able as-is
    from repro.analysis.stalls import figure_stalls, report_section
    text = figure_stalls([profile], 16).render()
    assert "stall attribution: radix (16 tiles)" in text
    assert "MESI" in text
    section = report_section([profile], 16)
    assert "## Latency & stall attribution" in section
    assert "pass" in section


# ----------------------------------------------------------------------
# Segment-chain unit behaviour (no simulation)
# ----------------------------------------------------------------------

def _bare_collector() -> AttribCollector:
    return AttribCollector(MetricsHub())


class TestSegmentChain:
    def test_full_memory_chain_sums_to_e2e(self):
        c = _bare_collector()
        c._record("load", 0, t_issue=100, t_done=260, home_arrive=110,
                  home_depart=120, arrive_mc=140, leave_mc=200,
                  fill_send=210, served_by=0, retries=0)
        sums = {seg: c.seg_sum["load"][seg] for seg in SEGMENTS}
        assert sums == {"req_noc": 10, "home": 10, "fwd_owner": 0,
                        "to_mc": 20, "dram": 60, "fill_stage": 10,
                        "fill_noc": 50}
        assert c.e2e_sum["load"] == 160 == sum(sums.values())
        assert c.unbalanced == 0 and c.nonmonotonic == 0

    def test_skipped_checkpoints_fold_into_next_segment(self):
        # An L2 hit: no MC checkpoints; fill_send interval is "home".
        c = _bare_collector()
        c._record("load", 0, t_issue=0, t_done=40, home_arrive=8,
                  home_depart=None, arrive_mc=None, leave_mc=None,
                  fill_send=20, served_by=1, retries=0)
        assert c.seg_sum["load"]["req_noc"] == 8
        assert c.seg_sum["load"]["home"] == 12
        assert c.seg_sum["load"]["fill_noc"] == 20
        assert c.e2e_sum["load"] == 40

    def test_remote_forward_labelled_fwd_owner(self):
        from repro.core.context import SERVED_REMOTE_L1
        c = _bare_collector()
        c._record("load", 0, t_issue=0, t_done=30, home_arrive=5,
                  home_depart=10, arrive_mc=None, leave_mc=None,
                  fill_send=22, served_by=SERVED_REMOTE_L1, retries=1)
        assert c.seg_sum["load"]["fwd_owner"] == 12
        assert c.retries["load"] == 1

    def test_nonmonotonic_checkpoint_counted_not_crashed(self):
        c = _bare_collector()
        c._record("load", 0, t_issue=50, t_done=80, home_arrive=40,
                  home_depart=60, arrive_mc=None, leave_mc=None,
                  fill_send=None, served_by=0, retries=0)
        assert c.nonmonotonic == 1
