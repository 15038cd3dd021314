"""repro — reproduction of "Eliminating on-chip traffic waste: are we
there yet?" (Smolinski).

A word-granular simulator of a tiled CMP (the paper's 16-tile 4x4 mesh
by default; the machine shape is a sweep axis) with MESI and DeNovo
coherence protocols, the paper's waste-characterization methodology, its
six benchmark access patterns, and harnesses regenerating every table
and figure of the evaluation.

Quickstart::

    from repro import build_workload, compute_energy, simulate
    result = simulate(build_workload("radix"), "DBypFull")
    print(result.traffic_total())
    print(compute_energy(result).total)   # post-hoc energy (joules)
"""

from repro.common.config import (
    ENERGY_MODELS,
    PROTOCOL_ORDER,
    PROTOCOLS,
    EnergyModelConfig,
    ProtocolConfig,
    ScaleConfig,
    SystemConfig,
    energy_model,
    protocol,
    reshape_system,
    scaled_system,
)
from repro.core.simulator import simulate, simulate_all_protocols
from repro.core.stats import RunResult
from repro.energy import EnergyStats, compute_energy
from repro.workloads import WORKLOAD_ORDER, build_all, build_workload

__version__ = "1.2.0"

__all__ = [
    "ENERGY_MODELS", "EnergyModelConfig", "EnergyStats",
    "PROTOCOLS", "PROTOCOL_ORDER", "ProtocolConfig", "RunResult",
    "ScaleConfig", "SystemConfig", "WORKLOAD_ORDER", "build_all",
    "build_workload", "compute_energy", "energy_model", "protocol",
    "reshape_system", "scaled_system", "simulate",
    "simulate_all_protocols", "__version__",
]
