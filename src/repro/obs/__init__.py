"""``repro.obs`` — observability: sampling and tracing.

Two coordinated parts, both opt-in and zero-overhead when unused:

* :class:`ObsSession` (:mod:`repro.obs.session`) — the per-run front
  door: ``simulate(workload, proto, config, obs=ObsSession())``.  It
  arms a :class:`PhaseSampler` (:mod:`repro.obs.sampler`) that records
  the events executed and the flits each tile forwarded per interval,
  and an :class:`AttribCollector` (:mod:`repro.obs.attrib`) that
  attributes miss latency and core stalls;
* :class:`SimTrace` (:mod:`repro.obs.trace`) — structured span tracing
  exported, with the sampled counter tracks, as Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``).
"""

from repro.obs.attrib import (
    SEGMENT_LABELS, SEGMENTS, STALL_CAUSES, STALL_LABELS, AttribCollector)
from repro.obs.sampler import PhaseSampler
from repro.obs.session import ObsSession
from repro.obs.trace import SimTrace

__all__ = [
    "AttribCollector",
    "ObsSession",
    "PhaseSampler",
    "SEGMENT_LABELS",
    "SEGMENTS",
    "STALL_CAUSES",
    "STALL_LABELS",
    "SimTrace",
]
