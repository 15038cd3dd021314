"""Unified metrics registry: counters, gauges and histograms.

:class:`MetricsHub` is the one place every instrumented layer's event
counts meet under a common schema: an insertion-ordered ``name ->
metric`` mapping with duplicate-kind rejection and near-miss
suggestions on failed lookups.

Two ways to feed a metric:

* **push** — ``hub.counter("retries").inc()`` /
  ``hub.gauge("queue_depth").set(n)`` / ``hub.histogram(...).observe(x)``
  from code that runs only when observability is enabled (telemetry
  collectors, trace hooks); a caller that pushes per event builds each
  series key once with :func:`label_key` and pushes through
  :meth:`Metric.inc_at` / :meth:`Histogram.observe_at`;
* **pull** — ``hub.add_pull(name, fn, **labels)`` registers a
  zero-argument callable read at snapshot time.  This is the default
  for the simulator layers: they already keep observational ``stat_*``
  counters for the energy model (PR 4), so the hub samples those
  instead of adding a single instruction to the hot path.  With no hub
  attached nothing is registered and nothing is read — the
  zero-overhead-when-disabled guarantee is structural, not a branch.

Every metric holds one value per *label set* (e.g. ``tile=3``), so
per-tile series and whole-machine totals come from the same
registration.  :meth:`MetricsHub.snapshot` materializes everything into
a JSON-able dict — the unit the phase sampler appends to its time
series — and :meth:`MetricsHub.total` sums a metric across label sets,
which is what the parity tests compare against the legacy
``stats()`` / ``energy_counters()`` dicts.
"""

from __future__ import annotations

import difflib
from bisect import bisect_left
from collections import OrderedDict
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Metric kinds.  Counters are monotonically non-decreasing event
#: counts; gauges are instantaneous levels; histograms bucket observed
#: values (durations, sizes).
KINDS = ("counter", "gauge", "histogram")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def label_key(**labels) -> LabelKey:
    """The canonical series key of a label set, for the ``*_at`` pushes.

    Independent of keyword order; a hot caller builds its keys once and
    passes them to :meth:`Metric.inc_at` / :meth:`Histogram.observe_at`.
    """
    return _label_key(labels)


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Metric:
    """One named instrument: a value (or histogram) per label set."""

    __slots__ = ("name", "kind", "help", "_series", "_pulls")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; one of {KINDS}")
        self.name = name
        self.kind = kind
        self.help = help
        self._series: Dict[LabelKey, float] = OrderedDict()
        self._pulls: List[Tuple[LabelKey, Callable[[], float]]] = []

    # -- push ----------------------------------------------------------
    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add to a counter (negative increments are rejected)."""
        self.inc_at(_label_key(labels), amount)

    def inc_at(self, key: LabelKey, amount: float = 1.0) -> None:
        """:meth:`inc` for a prebuilt :func:`label_key`."""
        if self.kind != "counter":
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError("counters only go up")
        series = self._series
        series[key] = series.get(key, 0.0) + amount

    def set(self, value: float, **labels) -> None:
        """Set a gauge's current level."""
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self._series[_label_key(labels)] = value

    # -- pull ----------------------------------------------------------
    def add_pull(self, fn: Callable[[], float], **labels) -> None:
        """Register a source read at snapshot time (sums per label set)."""
        self._pulls.append((_label_key(labels), fn))

    def clear(self) -> None:
        """Drop pushed state (measurement-window reset); pulls stay."""
        self._series.clear()

    # -- read ----------------------------------------------------------
    def collect(self) -> Dict[LabelKey, float]:
        """Current value per label set (pushed state + pulled sources)."""
        out: Dict[LabelKey, float] = OrderedDict(self._series)
        for key, fn in self._pulls:
            out[key] = out.get(key, 0.0) + fn()
        return out

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self.collect().values())

    def snapshot(self) -> Dict[str, float]:
        """JSON-able view: ``{"tile=0": value, ...}`` ("" if unlabeled)."""
        return {_label_str(k): v for k, v in self.collect().items()}


class Histogram(Metric):
    """Bucketed value distribution (per label set).

    Buckets are upper-bound-inclusive cumulative counts, Prometheus
    style, with an implicit ``+Inf`` bucket; ``total()`` reports the
    observation count so hub-wide summaries stay scalar.  An observation
    adds to one bin (the first bucket whose bound it does not exceed,
    or the trailing ``+Inf`` bin); :meth:`snapshot` accumulates the
    bins into the cumulative counts.
    """

    __slots__ = ("buckets", "_hists")

    #: Default cycle-duration buckets (powers of four, DRAM-latency
    #: through barrier-phase scale).
    DEFAULT_BUCKETS = (4, 16, 64, 256, 1024, 4096, 16384, 65536)

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, "histogram", help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        self._hists: Dict[LabelKey, List[float]] = OrderedDict()

    def observe(self, value: float, **labels) -> None:
        self.observe_at(_label_key(labels), value)

    def observe_at(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` for a prebuilt :func:`label_key`."""
        hist = self._hists.get(key)
        if hist is None:
            # [count, sum, bin_0, ..., bin_n, bin_+Inf]
            hist = self._hists[key] = [0.0] * (len(self.buckets) + 3)
        hist[0] += 1
        hist[1] += value
        hist[2 + bisect_left(self.buckets, value)] += 1

    def clear(self) -> None:
        """Drop observations (measurement-window reset)."""
        self._hists.clear()

    def collect(self) -> Dict[LabelKey, float]:
        return {key: hist[0] for key, hist in self._hists.items()}

    def snapshot(self) -> Dict[str, object]:  # type: ignore[override]
        return {
            _label_str(key): {
                "count": hist[0],
                "sum": hist[1],
                "buckets": dict(zip(map(str, self.buckets),
                                    accumulate(hist[2:]))),
            }
            for key, hist in self._hists.items()
        }


class MetricsHub:
    """Insertion-ordered name -> :class:`Metric` registry."""

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()

    # -- registration / factories --------------------------------------
    def _instrument(self, name: str, kind: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{metric.kind}, not a {kind}")
            return metric
        metric = (Histogram(name, help) if kind == "histogram"
                  else Metric(name, kind, help))
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Metric:
        """Create (or fetch) a counter."""
        return self._instrument(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Metric:
        """Create (or fetch) a gauge."""
        return self._instrument(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        """Create (or fetch) a histogram."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help,
                               buckets or Histogram.DEFAULT_BUCKETS)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} is already registered as a "
                             f"{metric.kind}, not a histogram")
        return metric

    def add_pull(self, name: str, fn: Callable[[], float], *,
                 kind: str = "counter", help: str = "", **labels) -> Metric:
        """Register a pull source under ``name`` for one label set.

        The instrumented layers' entry point: ``fn`` is a zero-argument
        read of an existing observational counter, evaluated only at
        snapshot/total time.
        """
        metric = self._instrument(name, kind, help)
        metric.add_pull(fn, **labels)
        return metric

    # -- lookup (registry pattern: suggestions on a miss) --------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            close = difflib.get_close_matches(name, list(self._metrics),
                                              n=2, cutoff=0.4)
            hint = f"; did you mean {' or '.join(close)}?" if close else ""
            raise KeyError(f"unknown metric {name!r}{hint}") from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._metrics)

    def total(self, name: str) -> float:
        """Sum of a metric across all its label sets."""
        return self.get(name).total()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, materialized: ``{name: {labelstr: value}}``."""
        return {name: metric.snapshot()
                for name, metric in self._metrics.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)
