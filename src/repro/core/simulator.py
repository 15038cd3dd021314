"""One-call simulation API.

>>> from repro.core.simulator import simulate
>>> from repro.workloads import build_workload
>>> result = simulate(build_workload("radix"), "DBypFull")
>>> result.traffic_total()
"""

from __future__ import annotations

import gc
from typing import Dict, Iterable, List, Optional, Union

from repro.common.config import (
    ProtocolConfig, SystemConfig, protocol as protocol_by_name)
from repro.common.registry import paper_ladder
from repro.core.stats import RunResult
from repro.core.system import System
from repro.workloads.trace import Workload


def simulate(workload: Workload,
             proto: Union[str, ProtocolConfig],
             config: Optional[SystemConfig] = None,
             obs=None) -> RunResult:
    """Simulate ``workload`` under ``proto`` and return the run result.

    Pass ``obs=repro.obs.ObsSession()`` to collect metrics and a
    structured trace from the run; the default (``None``) simulates
    with zero observability overhead.
    """
    if isinstance(proto, str):
        proto = protocol_by_name(proto)
    result = System(workload, proto, config, obs=obs).run()
    # The finished machine is one large reference cycle (cores, protocol
    # handlers and barrier callbacks point at each other).  Free it now,
    # not whenever the collector next reaches its oldest generation, so
    # a sweep of many cells holds one machine at a time.
    gc.collect()
    return result


def simulate_all_protocols(
        workload: Workload,
        protocols: Optional[Iterable[Union[str, ProtocolConfig]]] = None,
        config: Optional[SystemConfig] = None) -> Dict[str, RunResult]:
    """Run one workload under every protocol (figure x-axis order).

    ``protocols`` defaults to the paper ladder from the protocol
    registry; pass ``repro.common.registry.registered_protocols()`` to
    include beyond-paper rungs.
    """
    names = list(protocols) if protocols is not None else list(paper_ladder())
    results: Dict[str, RunResult] = {}
    for proto in names:
        result = simulate(workload, proto, config)
        results[result.protocol] = result
    return results
