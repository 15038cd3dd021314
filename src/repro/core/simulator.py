"""One-call simulation API.

>>> from repro.core.simulator import simulate
>>> from repro.workloads import build_workload
>>> result = simulate(build_workload("radix"), "DBypFull")
>>> result.traffic_total()
"""

from __future__ import annotations

import copy
import gc
from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Union

from repro.common.config import (
    PROTOCOL_FLAGS, PROTOCOL_ORDER, ProtocolConfig, SystemConfig,
    protocol as protocol_by_name)
from repro.core.stats import RunResult
from repro.core.system import System
from repro.workloads.trace import Workload


class StoredRun(NamedTuple):
    """A simulated run kept on its workload for later rungs: its result
    and the flags that acted in it (``CoherenceKernel.acted``)."""

    result: RunResult
    acted: FrozenSet[str]


def _stored(workload: Workload, proto: ProtocolConfig,
            config: SystemConfig) -> Optional[RunResult]:
    """The result of a run already simulated on ``workload`` that a run
    of ``proto`` on ``config`` would repeat event for event, or None.

    That is the first stored run of another rung of ``proto``'s kind on
    the same machine in which none of the flags the two rungs differ on
    acted: at every read of such a flag the other value would have taken
    the same branch, so the run with all of them flipped is the same.
    """
    for (ran, ran_config), stored in workload.results.items():
        if (ran.kind != proto.kind or ran_config != config
                or ran.name == proto.name):
            continue
        if not any(getattr(ran, flag) != getattr(proto, flag)
                   and flag in stored.acted for flag in PROTOCOL_FLAGS):
            return stored.result
    return None


def reused_from(workload: Workload,
                proto: Union[str, ProtocolConfig],
                config: Optional[SystemConfig] = None) -> Optional[str]:
    """The rung whose result an unobserved :func:`simulate` call for
    ``proto`` would copy, or None when the call would simulate.

    The answer depends on the runs already simulated on ``workload``:
    which flags acted in each of them.
    """
    if isinstance(proto, str):
        proto = protocol_by_name(proto)
    config = config if config is not None else SystemConfig()
    stored = _stored(workload, proto, config)
    return stored.protocol if stored is not None else None


def simulate(workload: Workload,
             proto: Union[str, ProtocolConfig],
             config: Optional[SystemConfig] = None,
             obs=None) -> RunResult:
    """Simulate ``workload`` under ``proto`` and return the run result.

    Pass ``obs=repro.obs.ObsSession()`` to collect interval samples,
    stall attribution and a structured trace from the run; the default (``None``) simulates
    with zero observability overhead.

    Every simulated run, observed or not, stores its result on
    ``workload`` with the set of flags that acted in it (observation
    never changes a result).  An unobserved run of another rung of the
    same kind on the same machine returns a copy of a stored result
    under its own name instead of simulating when none of the flags the
    two rungs differ on acted in the stored run: the two runs would be
    identical event for event (see :func:`reused_from`).  An observed
    run, and a repeat of the rung that produced the only matching
    stored result, always simulate.
    """
    if isinstance(proto, str):
        proto = protocol_by_name(proto)
    config = config if config is not None else SystemConfig()
    stored = _stored(workload, proto, config)
    if obs is None and stored is not None:
        result = copy.deepcopy(stored)
        result.protocol = proto.name
        return result
    system = System(workload, proto, config, obs=obs)
    result = system.run()
    acted = frozenset(system.proto_sys.acted)
    # The finished machine is one large reference cycle (cores, protocol
    # handlers and barrier callbacks point at each other).  Free it now,
    # not whenever the collector next reaches its oldest generation, so
    # a sweep of many cells holds one machine at a time.
    del system
    gc.collect()
    workload.results.setdefault(
        (proto, config), StoredRun(copy.deepcopy(result), acted))
    return result


def simulate_all_protocols(
        workload: Workload,
        protocols: Optional[Iterable[Union[str, ProtocolConfig]]] = None,
        config: Optional[SystemConfig] = None) -> Dict[str, RunResult]:
    """Run one workload under every protocol (figure x-axis order).

    ``protocols`` defaults to the paper ladder; pass
    ``repro.common.config.PROTOCOLS`` to include beyond-paper rungs.
    """
    names = list(protocols) if protocols is not None else list(PROTOCOL_ORDER)
    results: Dict[str, RunResult] = {}
    for proto in names:
        result = simulate(workload, proto, config)
        results[result.protocol] = result
    return results
