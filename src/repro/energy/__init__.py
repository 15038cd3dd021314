"""Energy accounting subsystem: counter-driven energy & EDP model.

The simulator records event counters; this package turns any finished
:class:`~repro.core.stats.RunResult` into a per-component energy
breakdown (core, L1, L2, NoC, MC, DRAM) plus derived metrics (total
energy, EDP, ED2P, energy per useful word) under a named technology
preset — no re-simulation required.  See :mod:`repro.energy.model`.
"""

from repro.energy.model import (
    COMPONENT_LABELS,
    COMPONENTS,
    EnergyStats,
    compute_energy,
    resolve_model,
)

__all__ = [
    "COMPONENTS", "COMPONENT_LABELS", "EnergyStats",
    "compute_energy", "resolve_model",
]
