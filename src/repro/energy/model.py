"""Counter-driven energy model over finished simulation results.

Energy is accounted **post hoc**: a run records event counters (tag
probes, line installs, Bloom filter activity, per-flit-hop network
traffic, DRAM commands, busy cycles) and this module multiplies them by
the per-event costs of an :class:`~repro.common.config.EnergyModelConfig`
technology preset, adding leakage scaled by execution time.  Nothing
here touches a simulated cycle — deriving energy from a stored
:class:`~repro.core.stats.RunResult` is pure arithmetic, so every
existing sweep result becomes an energy/EDP data point for free.

Conservation properties the audit tests rely on:

* the flit-hops charged to NoC energy are exactly the finalized
  :class:`~repro.network.traffic.TrafficLedger` totals
  (``result.traffic``), split into data and control via
  :func:`repro.network.traffic.split_flit_hops`;
* DRAM energy events are exactly the FR-FCFS model's command counts
  over the measurement window (``energy_counters["dram_*"]``).

Costs are relative-fidelity estimates (see ``EnergyModelConfig``), so
compare rungs, shapes and presets — don't quote absolute joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.common.config import (
    DEFAULT_ENERGY_MODEL, EnergyModelConfig, SystemConfig, energy_model)
from repro.core.core import CORE_GHZ
from repro.core.stats import RunResult
from repro.network.traffic import split_flit_hops

#: Component order used by every breakdown (figures, tables, report).
COMPONENTS = ("core", "l1", "l2", "noc", "mc", "dram")

COMPONENT_LABELS = {
    "core": "Core",
    "l1": "L1",
    "l2": "L2",
    "noc": "NoC",
    "mc": "MC",
    "dram": "DRAM",
}

_PJ = 1e-12          # picojoules -> joules
_MW = 1e-3           # milliwatts -> watts


@dataclass
class EnergyStats:
    """Energy breakdown of one run under one technology preset.

    ``dynamic`` and ``static`` map each component to joules; ``detail``
    keeps the per-event charge lines (for audits and debugging).
    ``exec_seconds`` is the run's execution time, so the delay-weighted
    metrics (EDP, ED2P) come straight off this object.
    """

    workload: str
    protocol: str
    model: str
    exec_seconds: float
    dynamic: Dict[str, float]
    static: Dict[str, float]
    detail: Dict[str, float] = field(default_factory=dict)
    useful_words: int = 0

    # -- derived metrics -----------------------------------------------
    def component(self, name: str) -> float:
        """Dynamic + leakage energy of one component (joules)."""
        return self.dynamic[name] + self.static[name]

    def components(self) -> Dict[str, float]:
        return {name: self.component(name) for name in COMPONENTS}

    @property
    def total(self) -> float:
        """Total energy (joules)."""
        return sum(self.dynamic.values()) + sum(self.static.values())

    @property
    def edp(self) -> float:
        """Energy-delay product (joule-seconds)."""
        return self.total * self.exec_seconds

    @property
    def ed2p(self) -> float:
        """Energy-delay-squared product (J*s^2)."""
        return self.total * self.exec_seconds ** 2

    @property
    def energy_per_useful_word(self) -> Optional[float]:
        """Joules per word the cores actually read (L1 Used words), or
        None for a run that used no L1 word, where it is undefined."""
        return self.total / self.useful_words if self.useful_words else None

    def validate(self) -> None:
        """Raise :class:`ValueError` on NaN/negative/non-finite energy."""
        for kind, bucket in (("dynamic", self.dynamic),
                             ("static", self.static)):
            for name, joules in bucket.items():
                if not math.isfinite(joules) or joules < 0:
                    raise ValueError(
                        f"{self.workload} x {self.protocol} [{self.model}]: "
                        f"{kind} {name} energy is {joules!r} (expected a "
                        f"finite non-negative value)")
        if not math.isfinite(self.exec_seconds) or self.exec_seconds < 0:
            raise ValueError(
                f"{self.workload} x {self.protocol} [{self.model}]: "
                f"exec_seconds is {self.exec_seconds!r}")


def resolve_model(model: Union[str, EnergyModelConfig, None]
                  ) -> EnergyModelConfig:
    """Accept a preset name, a config instance, or None (the default)."""
    if model is None:
        model = DEFAULT_ENERGY_MODEL
    if isinstance(model, str):
        return energy_model(model)
    return model


def compute_energy(result: RunResult,
                   model: Union[str, EnergyModelConfig, None] = None,
                   config: Optional[SystemConfig] = None) -> EnergyStats:
    """Derive the energy breakdown of one finished run.

    ``config`` supplies the unit counts; it defaults to the paper's
    16-tile machine and only needs to match the run's *shape* (its
    tile count), not its cache sizing.  Cache, Bloom, MC and DRAM events
    come from ``result.energy_counters``, scoped to the measurement
    window; a counter the run did not record (MESI has no Bloom
    filters) charges nothing.
    """
    em = resolve_model(model)
    cfg = config if config is not None else SystemConfig()
    counters = result.energy_counters
    exec_seconds = result.exec_cycles / (CORE_GHZ * 1e9)

    detail: Dict[str, float] = {}

    def charge(line: str, events: float, cost_pj: float) -> float:
        joules = events * cost_pj * _PJ
        detail[line] = joules
        return joules

    # Core: busy (non-stalled) cycles summed over all cores.
    dyn_core = charge("core_busy_cycles", result.time.get("busy", 0.0),
                      em.core_cycle_pj)

    # L1 / L2: tag probes + words moved into the data arrays (the waste
    # profiler counts every word that enters a level) + line installs
    # (tag writes, charged at probe cost) + Bloom shadow activity, which
    # physically lives beside the L1s.
    get = counters.get
    dyn_l1 = (
        charge("l1_probes", get("l1_probes", 0), em.l1_probe_pj)
        + charge("l1_installs", get("l1_installs", 0), em.l1_probe_pj)
        + charge("l1_words", result.words_fetched("l1"), em.l1_word_pj)
        + charge("bloom_shadow_ops",
                 get("bloom_shadow_checks", 0)
                 + get("bloom_shadow_inserts", 0)
                 + get("bloom_shadow_installs", 0),
                 em.bloom_op_pj))
    dyn_l2 = (
        charge("l2_probes", get("l2_probes", 0), em.l2_probe_pj)
        + charge("l2_installs", get("l2_installs", 0), em.l2_probe_pj)
        + charge("l2_words", result.words_fetched("l2"), em.l2_word_pj)
        + charge("bloom_slice_ops",
                 get("bloom_slice_checks", 0)
                 + get("bloom_slice_updates", 0),
                 em.bloom_op_pj))

    # NoC: every flit-hop the ledger finalized crosses one link and
    # enters one router.  Charged from ``result.traffic`` so the total
    # reconciles with the traffic figures by construction.
    data_hops, ctl_hops = split_flit_hops(result.traffic)
    flit_hops = data_hops + ctl_hops
    dyn_noc = (charge("noc_data_flit_hops", data_hops,
                      em.router_flit_hop_pj + em.link_flit_hop_pj)
               + charge("noc_ctl_flit_hops", ctl_hops,
                        em.router_flit_hop_pj + em.link_flit_hop_pj))
    detail["noc_flit_hops"] = flit_hops  # events, not joules: audit aid

    # MC + DRAM: the FR-FCFS model's command counts over the
    # measurement window (every other component is window-scoped, so
    # warm-up DRAM traffic must not leak into the breakdown).
    accesses = get("dram_reads", 0) + get("dram_writes", 0)
    dyn_mc = charge("mc_requests", accesses, em.mc_request_pj)
    dyn_dram = (
        charge("dram_activates", get("dram_activates", 0),
               em.dram_activate_pj)
        + charge("dram_precharges", get("dram_precharges", 0),
                 em.dram_precharge_pj)
        + charge("dram_accesses", accesses, em.dram_access_pj))

    dynamic = {"core": dyn_core, "l1": dyn_l1, "l2": dyn_l2,
               "noc": dyn_noc, "mc": dyn_mc, "dram": dyn_dram}

    # Leakage: per-unit power x unit count x execution time.
    tiles = cfg.num_tiles
    mcs = len(cfg.mc_placement())
    static = {
        "core": em.core_leak_mw * tiles * _MW * exec_seconds,
        "l1": em.l1_leak_mw * tiles * _MW * exec_seconds,
        "l2": em.l2_leak_mw * tiles * _MW * exec_seconds,
        "noc": em.noc_leak_mw * tiles * _MW * exec_seconds,
        "mc": em.mc_leak_mw * mcs * _MW * exec_seconds,
        "dram": em.dram_leak_mw * mcs * _MW * exec_seconds,
    }

    stats = EnergyStats(
        workload=result.workload,
        protocol=result.protocol,
        model=em.name,
        exec_seconds=exec_seconds,
        dynamic=dynamic,
        static=static,
        detail=detail,
        useful_words=result.used_words("l1"),
    )
    stats.validate()
    return stats
