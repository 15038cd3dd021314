"""``repro.obs`` — observability: metrics, tracing, fleet telemetry.

Three coordinated parts, all opt-in and zero-overhead when unused:

* :class:`MetricsHub` (:mod:`repro.obs.metrics`) — the unified metrics
  registry every instrumented layer registers its observational
  counters into, plus :class:`PhaseSampler` (:mod:`repro.obs.sampler`)
  snapshotting it into a per-interval time series;
* :class:`SimTrace` (:mod:`repro.obs.trace`) — structured span tracing
  exported as Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), driven through :class:`ObsSession`
  (:mod:`repro.obs.session`), the per-run front door:
  ``simulate(workload, proto, config, obs=ObsSession())``;
* :class:`SweepTelemetry` (:mod:`repro.obs.telemetry`) — per-cell
  fleet telemetry over the runner's ``ProgressFn``, persisted as a
  ``telemetry.json`` sidecar in the result store.
"""

from repro.obs.attrib import (
    SEGMENT_LABELS, SEGMENTS, STALL_CAUSES, STALL_LABELS, AttribCollector)
from repro.obs.metrics import Histogram, Metric, MetricsHub, label_key
from repro.obs.sampler import PhaseSampler
from repro.obs.session import ObsSession
from repro.obs.telemetry import SIDECAR_NAME, SweepTelemetry, load_telemetry
from repro.obs.trace import SimTrace

__all__ = [
    "AttribCollector",
    "Histogram",
    "Metric",
    "MetricsHub",
    "ObsSession",
    "PhaseSampler",
    "SEGMENT_LABELS",
    "SEGMENTS",
    "SIDECAR_NAME",
    "STALL_CAUSES",
    "STALL_LABELS",
    "SimTrace",
    "SweepTelemetry",
    "label_key",
    "load_telemetry",
]
