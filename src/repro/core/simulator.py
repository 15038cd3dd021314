"""One-call simulation API.

>>> from repro.core.simulator import simulate
>>> from repro.workloads import build_workload
>>> result = simulate(build_workload("radix"), "DBypFull")
>>> result.traffic_total()
"""

from __future__ import annotations

import copy
import gc
from dataclasses import replace
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.common.config import (
    PROTOCOL_ORDER, ProtocolConfig, SystemConfig,
    protocol as protocol_by_name)
from repro.core.stats import RunResult
from repro.core.system import System
from repro.workloads.trace import Workload


def _annotations(workload: Workload) -> Tuple[bool, bool]:
    """Whether any region carries a Flex pattern, and whether any is
    marked ``bypass_l2``, in the initial table or in a phase update."""
    annotated = list(workload.regions) + [
        update for batch in workload.phase_region_updates.values()
        for update in batch]
    return (any(a.flex is not None for a in annotated),
            any(a.bypass_l2 for a in annotated))


def behaviour_key(workload: Workload, proto: ProtocolConfig,
                  config: SystemConfig) -> tuple:
    """What an unobserved run of ``proto`` on ``workload`` depends on.

    The rung's flags and the machine, less the flags the workload's
    annotations never let act: Flex only changes a response for an
    address whose region has a Flex pattern, and response bypass only
    for a region marked ``bypass_l2``.  Request bypass builds Bloom
    banks whose counters are part of the result, so it always counts,
    and so does the response bypass it requires.  The rung's name only
    labels the result.
    """
    flex, bypass = _annotations(workload)
    changes = {"name": ""}
    if not flex:
        changes.update(flex_l1=False, flex_l2=False)
    if not bypass and not proto.bypass_l2_request:
        changes["bypass_l2_response"] = False
    return replace(proto, **changes), config


def _stored(workload: Workload, proto: ProtocolConfig,
            config: SystemConfig) -> Tuple[tuple, Optional[RunResult]]:
    """``proto``'s behaviour key, and the result another rung left under
    it on ``workload`` (None when there is none)."""
    key = behaviour_key(workload, proto, config)
    stored = workload.results.get(key)
    if stored is not None and stored.protocol == proto.name:
        stored = None
    return key, stored


def reused_from(workload: Workload,
                proto: Union[str, ProtocolConfig],
                config: Optional[SystemConfig] = None) -> Optional[str]:
    """The rung whose result an unobserved :func:`simulate` call for
    ``proto`` would copy, or None when the call would simulate."""
    if isinstance(proto, str):
        proto = protocol_by_name(proto)
    config = config if config is not None else SystemConfig()
    stored = _stored(workload, proto, config)[1]
    return stored.protocol if stored is not None else None


def simulate(workload: Workload,
             proto: Union[str, ProtocolConfig],
             config: Optional[SystemConfig] = None,
             obs=None) -> RunResult:
    """Simulate ``workload`` under ``proto`` and return the run result.

    Pass ``obs=repro.obs.ObsSession()`` to collect interval samples,
    stall attribution and a structured trace from the run; the default (``None``) simulates
    with zero observability overhead.

    An unobserved run whose :func:`behaviour_key` equals that of a rung
    already simulated on this workload returns a copy of that rung's
    result under ``proto``'s name instead of simulating: the two runs
    would be identical event for event.  Every simulated run, observed
    or not, stores its result for later rungs (observation never
    changes a result).  An observed run, and a repeat of the rung that
    produced the stored result, always simulate.
    """
    if isinstance(proto, str):
        proto = protocol_by_name(proto)
    config = config if config is not None else SystemConfig()
    key, stored = _stored(workload, proto, config)
    if obs is None and stored is not None:
        result = copy.deepcopy(stored)
        result.protocol = proto.name
        return result
    result = System(workload, proto, config, obs=obs).run()
    # The finished machine is one large reference cycle (cores, protocol
    # handlers and barrier callbacks point at each other).  Free it now,
    # not whenever the collector next reaches its oldest generation, so
    # a sweep of many cells holds one machine at a time.
    gc.collect()
    workload.results.setdefault(key, copy.deepcopy(result))
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
