"""Layers of the simulator, and host time folded onto them.

Two instruments live here, both applied from the benchmark's side so no
file under ``src/`` changes:

* :class:`Spans` times the calls into a layer's entry points (``System``
  construction, Bloom bank construction, trace builds, store reads and
  writes, report and figure rendering) by wrapping them for one pass.
* :func:`fold` turns a ``cProfile`` run into per-layer self time and
  call counts with a module -> layer map.  Builtin and standard-library
  functions have no layer of their own; they are charged to the layers
  that called them.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from speed import clock

#: Every ``src/repro`` subpackage is a layer of its own.
PACKAGE_LAYERS = ("analysis", "bloom", "cache", "coherence", "common",
                  "core", "dram", "energy", "engine", "network", "obs",
                  "runner", "waste", "workloads")

#: Modules directly under ``src/repro``.
TOP_LEVEL_LAYERS = {"__init__": "common", "__main__": "runner",
                    "bench": "runner"}

#: The benchmark's own code, and time reached from no layer at all.
HARNESS = "harness"
#: A module under ``src/repro`` that the map above does not name.
OTHER = "other"

LAYERS = PACKAGE_LAYERS + (HARNESS, OTHER)

Func = Tuple[str, int, str]
_NO_STATS = (0, 0, 0.0, 0.0, {})
#: Fields of a cProfile caller edge ``(nc, cc, tt, ct)``.
_EDGE_CALLS, _EDGE_TIME = 0, 2


def module_layer(relpath: str) -> str:
    """Layer of a module, given its path relative to ``src/repro``."""
    parts = Path(relpath).parts
    if len(parts) == 1:
        return TOP_LEVEL_LAYERS.get(Path(parts[0]).stem, OTHER)
    return parts[0] if parts[0] in PACKAGE_LAYERS else OTHER


def unmapped_modules(package_dir: Path) -> list:
    """Modules under ``package_dir`` that fall through to :data:`OTHER`."""
    return sorted(str(p.relative_to(package_dir))
                  for p in package_dir.rglob("*.py")
                  if module_layer(str(p.relative_to(package_dir))) == OTHER)


class LayerMap:
    """Resolves profiled functions to layers by their source file."""

    def __init__(self, package_dir: Path, harness_dir: Path) -> None:
        self._package = str(package_dir.resolve()) + os.sep
        self._harness = str(harness_dir.resolve()) + os.sep

    def own_layer(self, func: Func) -> Optional[str]:
        """The layer a function belongs to by its file; ``None`` for
        builtins and library code, which take their caller's layer."""
        filename = func[0]
        if filename.startswith(self._package):
            return module_layer(filename[len(self._package):])
        if filename.startswith(self._harness):
            return HARNESS
        return None


def fold(stats: dict, layers: LayerMap) -> dict:
    """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats.stats``.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)``, where
    ``callers`` maps each caller to its ``(nc, cc, tt, ct)`` edge.  A
    function without a layer of its own is split over its callers --
    self time by the time spent under each caller, calls by the calls
    each made -- following callers up through other library code, so
    the layer totals add up to the profile's total self time exactly.
    Time reached from no layer at all goes to :data:`HARNESS`.
    """
    memo: Dict[tuple, Dict[str, float]] = {}
    resolving = set()

    def split(func: Func, field: int) -> Dict[str, float]:
        key = (func, field)
        if key in memo:
            return memo[key]
        own = layers.own_layer(func)
        if own is not None:
            return {own: 1.0}
        resolving.add(func)
        edges = [(caller, edge) for caller, edge
                 in stats.get(func, _NO_STATS)[4].items()
                 if caller not in resolving]
        weights = [(caller, edge[field]) for caller, edge in edges]
        if sum(w for _c, w in weights) <= 0:
            weights = [(caller, edge[_EDGE_CALLS]) for caller, edge in edges]
        total = sum(w for _c, w in weights)
        shares: Dict[str, float] = defaultdict(float)
        for caller, weight in weights:
            for layer, part in split(caller, field).items():
                shares[layer] += part * weight / total
        resolving.discard(func)
        memo[key] = dict(shares) if total > 0 else {HARNESS: 1.0}
        return memo[key]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, part in split(func, _EDGE_TIME).items():
            self_s[layer] += tt * part
        for layer, part in split(func, _EDGE_CALLS).items():
            calls[layer] += nc * part
    return {"self_s": self_s,
            "calls": {k: round(v) for k, v in calls.items()},
            "total_s": sum(entry[2] for entry in stats.values())}


def merge(folds: Iterable[dict]) -> dict:
    """Sum several :func:`fold` results (one per profiled process)."""
    out = {"self_s": dict.fromkeys(LAYERS, 0.0),
           "calls": dict.fromkeys(LAYERS, 0), "total_s": 0.0}
    for folded in folds:
        for layer in LAYERS:
            out["self_s"][layer] += folded["self_s"][layer]
            out["calls"][layer] += folded["calls"][layer]
        out["total_s"] += folded["total_s"]
    return out


class Spans:
    """CPU time of calls into chosen entry points, keyed by metric.

    ``wrap`` replaces an attribute with a timing wrapper until
    :meth:`close`; nested spans are timed independently, so
    ``core.construct_s`` (all of ``System(...)``) includes
    ``bloom.construct_s`` (the Bloom banks it builds).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self._undo = []

    def wrap(self, owner, attr: str, key: str) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        seconds = self.seconds

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[key] += clock() - start

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_spans() -> Spans:
    """Spans around every layer entry point the per-layer metrics use."""
    import repro.analysis.report as report
    import repro.analysis.stalls as stalls
    import repro.bloom.filters as bloom
    import repro.core.system as system
    import repro.runner.pool as pool
    import repro.runner.store as store
    import repro.workloads as workloads

    spans = Spans()
    spans.wrap(system.System, "__init__", "core.construct_s")
    spans.wrap(bloom.SliceFilterBank, "__init__", "bloom.construct_s")
    spans.wrap(bloom.L1FilterShadow, "__init__", "bloom.construct_s")
    spans.wrap(workloads, "build_workload", "workloads.build_s")
    spans.wrap(pool, "build_workload", "workloads.build_s")
    spans.wrap(store.ResultStore, "save", "runner.store_write_s")
    spans.wrap(store.ResultStore, "load", "runner.store_read_s")
    spans.wrap(report, "generate", "analysis.render_s")
    spans.wrap(stalls.StallsFigure, "render", "analysis.render_s")
    return spans
