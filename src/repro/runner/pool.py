"""Sweep execution: serially in-process, or across a process pool.

The sweep is embarrassingly parallel: every (workload, protocol) cell is
an independent pure-Python simulation.  :func:`run_jobs` runs
:class:`~repro.runner.jobs.JobSpec`s serially in this process when
``jobs <= 1`` and otherwise opens a ``ProcessPoolExecutor`` for the one
call (fork context where available).  Only the small specs cross the
pipe; workers rebuild workload traces locally (generators are seeded,
so every rebuild is bit-identical) and memoize them per process, so a
workload's protocol rungs share one trace build.

Crash handling: a worker dying (OOM-kill, segfaulting C extension,
interpreter abort) breaks the pool and fails every in-flight future.
Failed cells are retried once in a fresh pool, and whatever still fails
runs serially in the parent as a last resort, so a sweep either
completes every cell or raises the underlying error with its real
traceback.

:func:`sweep` layers the durable result store on top (the parent writes
every result); :func:`sweep_grid` returns the classic
``grid[workload][protocol]`` mapping the analysis and figure code
consume.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ScaleConfig, SystemConfig
from repro.core.simulator import simulate
from repro.core.stats import RunResult
from repro.runner.jobs import DEFAULT_SEED, JobSpec, expand_grid
from repro.runner.store import ResultStore
from repro.workloads import build_workload

Grid = Dict[str, Dict[str, RunResult]]

#: Called after each finished cell: ``progress(outcome, done, total)``.
ProgressFn = Callable[["JobOutcome", int, int], None]


@dataclass
class JobOutcome:
    """One completed cell: its result plus execution metadata."""

    spec: JobSpec
    result: RunResult
    elapsed: float        # seconds spent simulating (0.0 if from cache)
    attempts: int         # executions consumed (0 if from cache)
    from_cache: bool


# ----------------------------------------------------------------------
# Cell execution (in workers and in the parent)
# ----------------------------------------------------------------------

#: Per-process memo of built workload traces, keyed by
#: (name, scale, num_cores, seed) — the complete build input.  Specs
#: arrive workload-major then shape-major, so all protocol cells of one
#: (workload, shape) share a single build; a small LRU (rather than a
#: single slot) keeps neighbouring shapes warm when completion order
#: interleaves cells, without pinning unbounded trace memory.
_WORKLOAD_MEMO: "dict" = {}
_WORKLOAD_MEMO_MAX = 8


def _timed_workload(name: str, scale: ScaleConfig, num_cores: int,
                    seed: int):
    """The memoized workload plus the seconds spent building it
    (0.0 on a memo hit)."""
    key = (name, scale, num_cores, seed)
    workload = _WORKLOAD_MEMO.get(key)
    if workload is not None:
        # Refresh LRU position (dicts preserve insertion order).
        _WORKLOAD_MEMO.pop(key)
        _WORKLOAD_MEMO[key] = workload
        return workload, 0.0
    start = time.perf_counter()
    while len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
        _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
    workload = build_workload(name, scale, num_cores=num_cores, seed=seed)
    _WORKLOAD_MEMO[key] = workload
    return workload, time.perf_counter() - start


def _execute_timed(spec: JobSpec) -> Tuple[RunResult, float, float]:
    """Simulate one cell; returns (result, sim_seconds, build_seconds)."""
    workload, build_s = _timed_workload(spec.workload, spec.scale,
                                        spec.config.num_tiles, spec.seed)
    start = time.perf_counter()
    result = simulate(workload, spec.protocol, spec.config)
    return result, time.perf_counter() - start, build_s


def _pool_context():
    # fork skips re-importing the simulator in every worker and is
    # available on every POSIX platform; fall back to the default
    # (spawn) elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool_round(specs: Sequence[JobSpec], indices: Sequence[int],
                    jobs: int, attempts: List[int],
                    finish: Callable[[int, tuple], None]) -> List[int]:
    """Run ``indices`` in a fresh pool; returns the ones that failed.

    A job error and a dead worker (``BrokenProcessPool``) both count as
    a failure of the cell; the caller decides whether to retry.
    """
    failed: List[int] = []
    ex = ProcessPoolExecutor(max_workers=min(jobs, len(indices)),
                             mp_context=_pool_context())
    try:
        futures = {ex.submit(_execute_timed, specs[i]): i for i in indices}
        for future in as_completed(futures):
            i = futures[future]
            attempts[i] += 1
            try:
                timed = future.result()
            except Exception:
                failed.append(i)
            else:
                finish(i, timed)
    finally:
        ex.shutdown(cancel_futures=True)
    return failed


def run_jobs(specs: Sequence[JobSpec],
             jobs: int = 1,
             retries: int = 1,
             notify: Optional[Callable[[int, JobOutcome], None]] = None,
             ) -> List[JobOutcome]:
    """Execute every spec, returning outcomes in input order.

    ``jobs <= 1`` runs serially in-process (deterministic ordering — the
    reference path).  Otherwise cells run in a process pool opened for
    this call; cells that fail are retried ``retries`` times, each round
    in a fresh pool, and then once serially here.  ``notify(index,
    outcome)``, when given, fires as each cell completes (completion
    order).
    """
    specs = list(specs)
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    attempts = [0] * len(specs)

    def finish(index: int, timed: tuple) -> None:
        result, elapsed, _build_s = timed
        outcomes[index] = JobOutcome(specs[index], result, elapsed,
                                     attempts[index], from_cache=False)
        if notify is not None:
            notify(index, outcomes[index])

    remaining = list(range(len(specs)))
    if jobs > 1 and len(specs) > 1:
        for _round in range(retries + 1):
            if not remaining:
                break
            remaining = _run_pool_round(specs, remaining, jobs, attempts,
                                        finish)
    # Serial path, and the last resort for pool stragglers: a
    # deterministic job error surfaces here with its real traceback.
    try:
        for i in remaining:
            attempts[i] += 1
            finish(i, _execute_timed(specs[i]))
    finally:
        # Don't pin full workload traces in the parent after the sweep.
        _WORKLOAD_MEMO.clear()
    return outcomes  # type: ignore[return-value]


def sweep(specs: Sequence[JobSpec],
          jobs: int = 1,
          store: Optional[ResultStore] = None,
          use_cache: bool = True,
          retries: int = 1,
          progress: Optional[ProgressFn] = None) -> List[JobOutcome]:
    """Run a sweep against the durable store.

    Cells already in the store are served from disk; the rest execute
    through :func:`run_jobs` and are persisted here as they complete.
    With ``use_cache=False`` nothing is read from or written to disk.
    """
    specs = list(specs)
    store = store if store is not None else ResultStore()
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    total = len(specs)
    done = 0

    def report(i: int, outcome: JobOutcome) -> None:
        nonlocal done
        outcomes[i] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        cached = (store.load(spec.workload, spec.protocol, spec.store_key())
                  if use_cache else None)
        if cached is not None:
            report(i, JobOutcome(spec, cached, 0.0, 0, from_cache=True))
        else:
            pending.append(i)

    def notify(pending_index: int, outcome: JobOutcome) -> None:
        if use_cache:
            store.save(outcome.result, outcome.spec.store_key())
        report(pending[pending_index], outcome)

    run_jobs([specs[i] for i in pending], jobs=jobs, retries=retries,
             notify=notify)
    return outcomes  # type: ignore[return-value]


def sweep_grid(workloads: Optional[Sequence[str]] = None,
               protocols: Optional[Sequence[str]] = None,
               scale: Optional[ScaleConfig] = None,
               config: Optional[SystemConfig] = None,
               seed: int = DEFAULT_SEED,
               jobs: int = 1,
               store: Optional[ResultStore] = None,
               use_cache: bool = True,
               retries: int = 1,
               progress: Optional[ProgressFn] = None) -> Grid:
    """Sweep the (workload x protocol) grid; returns paper-order results.

    Drop-in data source for the figure/report renderers:
    ``grid[workload][protocol] -> RunResult``.  One machine shape per
    call (the config's); use :func:`sweep_shapes` for a tiles axis.
    """
    specs = expand_grid(workloads, protocols, scale, config, seed=seed)
    outcomes = sweep(specs, jobs=jobs, store=store, use_cache=use_cache,
                     retries=retries, progress=progress)
    grid: Grid = {}
    for outcome in outcomes:
        grid.setdefault(outcome.spec.workload, {})[
            outcome.spec.protocol] = outcome.result
    return grid


def sweep_shapes(tiles: Sequence[int],
                 workloads: Optional[Sequence[str]] = None,
                 protocols: Optional[Sequence[str]] = None,
                 scale: Optional[ScaleConfig] = None,
                 config: Optional[SystemConfig] = None,
                 seed: int = DEFAULT_SEED,
                 jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 use_cache: bool = True,
                 retries: int = 1,
                 progress: Optional[ProgressFn] = None,
                 ) -> Dict[int, Grid]:
    """Sweep the (workload x shape x protocol) grid over a tiles axis.

    Returns ``shapes[num_tiles][workload][protocol] -> RunResult`` in
    the order the ``tiles`` axis was given — the data source for the
    core-count scaling figure (:mod:`repro.analysis.scaling`).
    """
    specs = expand_grid(workloads, protocols, scale, config, seed=seed,
                        tiles=tiles)
    outcomes = sweep(specs, jobs=jobs, store=store, use_cache=use_cache,
                     retries=retries, progress=progress)
    shapes: Dict[int, Grid] = {}
    for outcome in outcomes:
        spec = outcome.spec
        shapes.setdefault(spec.num_tiles, {}).setdefault(
            spec.workload, {})[spec.protocol] = outcome.result
    return shapes
