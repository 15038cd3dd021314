"""Job specifications for the sweep runner.

A :class:`JobSpec` names one (workload, protocol, machine shape)
simulation cell completely: the workload and protocol, the input scale,
the system configuration — which carries the machine shape, so a sweep
cell is a point on the (workload x protocol x shape) grid — and the
trace-generator seed.  Specs are small frozen dataclasses so they
pickle cheaply across the process-pool pipe — workers rebuild the
(large) workload trace locally, once per task, sized to the spec's tile
count.

Key derivation is shared with the durable result store: every cell has

* a **config key** — hash of (scale, system) only, shared by all cells
  of one grid sweep.  The key payload hashes every ``SystemConfig``
  field, so the machine shape (``num_tiles``) enters every key;
* a **store key** — the config key tagged with the tile count (a
  readable ``-tN`` suffix, so shapes are distinguishable in a cache
  directory listing) plus the seed when it differs from the generators'
  default; it names the cache file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.common.config import (
    DEFAULT_SCALE, PROTOCOL_ORDER, ScaleConfig, SystemConfig, protocol,
    reshape_system, scaled_system)
from repro.common.hashing import config_items, stable_hash
from repro.workloads import WORKLOAD_ORDER, canonical_workload

#: Default trace-generator seed (matches ``workloads.base.Generator``).
DEFAULT_SEED = 12345

#: Bump when workload generators, protocol semantics or the config hash
#: payload change, so stale cached results are never reused.  v7: the
#: execution engine became a first-class ``SystemConfig`` axis
#: (``engine``), which enters the config hash payload.  v8: the event
#: scheduler joined the config (``scheduler``) — results are
#: bit-identical across schedulers by contract, but the hash payload
#: changed shape, so v7 keys are retired; old cache files are simply
#: re-simulated on first use.  v9: the scheduler field left the
#: config again (one heap scheduler), so the payload changed shape
#: once more.  v10: the engine field left the config too (one
#: execution engine); results are unchanged, the payload shape is not.
#: v11: the unread ``mc_queue_depth`` field left the config.  v12: the
#: unread ``dram_t_ras`` field left the config, and ``line_bytes`` /
#: ``word_bytes`` became read-only properties over the fixed address
#: layout; results are unchanged, the payload shape is not.  v13: the
#: 17 fields no code varied (clock, associativities, link, DRAM,
#: buffer, barrier and Bloom-hash parameters) left the config for
#: constants in the modules that model them, and ``mesh_width`` became
#: a property of ``num_tiles``; results are unchanged, the payload is
#: not.  Those constants are not in the payload, so editing one needs
#: a bump here, just as a protocol change does.
GRID_VERSION = 13


def config_key(scale: ScaleConfig, config: SystemConfig) -> str:
    """Stable short hash of the (scale, system) configuration."""
    payload = [GRID_VERSION, config_items(scale), config_items(config)]
    return stable_hash(payload)


@dataclass(frozen=True)
class JobSpec:
    """One independent simulation cell of a sweep.

    The machine shape rides in ``config`` (``config.num_tiles``); it
    enters every derived key and sizes the workload trace the worker
    builds.
    """

    workload: str
    protocol: str
    scale: ScaleConfig
    config: SystemConfig
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        # Validate and canonicalize eagerly: a typo should fail in the
        # parent process with a clear message, not inside a pool worker.
        object.__setattr__(self, "workload", canonical_workload(self.workload))
        protocol(self.protocol)

    @property
    def num_tiles(self) -> int:
        """Machine shape of this cell (tile == core count)."""
        return self.config.num_tiles

    # -- key derivation ----------------------------------------------------
    def config_key(self) -> str:
        return config_key(self.scale, self.config)

    def store_key(self) -> str:
        """Key naming this cell's cache file in the result store."""
        key = f"{self.config_key()}-t{self.num_tiles}"
        if self.seed == DEFAULT_SEED:
            return key
        return f"{key}-s{self.seed}"

    def label(self) -> str:
        return f"{self.workload} x {self.protocol} @ {self.num_tiles}t"


def expand_grid(workloads: Optional[Sequence[str]] = None,
                protocols: Optional[Sequence[str]] = None,
                scale: Optional[ScaleConfig] = None,
                config: Optional[SystemConfig] = None,
                seed: int = DEFAULT_SEED,
                tiles: Optional[Sequence[int]] = None) -> Tuple[JobSpec, ...]:
    """The (workload x shape x protocol) grid as job specs.

    Defaults: paper workload/protocol order, the fast ``small`` scale, and a system
    configuration shrunk in step with the scale.  ``tiles`` adds the
    machine-shape axis: each entry re-shapes the base configuration via
    :func:`repro.common.config.reshape_system`.  Specs are ordered
    workload-major, then shape, then protocol, so all protocol cells
    sharing one (workload, shape) trace are adjacent; the runner builds
    that trace once per task (:func:`repro.runner.pool.run_jobs`).
    """
    workloads = tuple(workloads) if workloads else WORKLOAD_ORDER
    protocols = tuple(protocols) if protocols else PROTOCOL_ORDER
    scale = scale if scale is not None else DEFAULT_SCALE
    base = config if config is not None else scaled_system(scale)
    configs = (tuple(reshape_system(base, t) for t in tiles) if tiles
               else (base,))
    return tuple(JobSpec(workload=w, protocol=p, scale=scale,
                         config=cfg, seed=seed)
                 for w in workloads for cfg in configs for p in protocols)
