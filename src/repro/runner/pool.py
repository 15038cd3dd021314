"""Sweep execution: serially in-process, or across a process pool.

Every (workload, protocol) cell is an independent pure-Python
simulation, but the rungs of one workload share its trace build, and a
rung whose optimisation never fires copies a lower rung's result
(:func:`repro.core.simulator.simulate`).  So :func:`run_jobs` executes
*tasks*: one trace build plus the rungs that can share its results,
simulated in spec order.  Serially (``jobs <= 1``) a task is every cell
of one (workload, scale, config, seed).  In a process pool (opened for
the one call, fork context where available) that task is split by
protocol kind: a rung only ever copies a rung of its own kind, so the
split loses no reuse and gives the pool twice as many tasks to spread.
Either way a cell's result and its ``reused_from`` do not depend on
``jobs``.  Only the small specs cross the pipe; workers rebuild the
trace locally (generators are seeded, so every rebuild is
bit-identical), and no trace outlives its task.  ``multiprocessing``
and ``concurrent.futures`` load with the first pool, so a serial sweep
and the commands that never sweep do not pay for them.

Crash handling: a worker dying (OOM-kill, segfaulting C extension,
interpreter abort) breaks the pool and fails every in-flight task.  A
failed task counts one attempt against each of its cells; it is retried
once in a fresh pool, and whatever still fails runs serially in the
parent as a last resort, so a sweep either completes every cell or
raises the underlying error with its real traceback.

:func:`sweep` layers the durable result store on top (the parent writes
every result); :func:`sweep_grid` returns the classic
``grid[workload][protocol]`` mapping the analysis and figure code
consume.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from repro.common.config import ScaleConfig, SystemConfig, protocol
from repro.core.simulator import reused_from, simulate
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
    #: the rung whose result ``simulate()`` copied, None if simulated
    reused_from: Optional[str] = None

    def status(self) -> str:
        """How the cell was served, for progress lines: ``cached``,
        ``= <rung>`` for a copied result (its time is not a simulation),
        else the simulation seconds."""
        if self.from_cache:
            return "cached"
        if self.reused_from is not None:
            return f"= {self.reused_from}"
        return f"{self.elapsed:.2f}s"


# ----------------------------------------------------------------------
# Task execution (in workers and in the parent)
# ----------------------------------------------------------------------

#: Fresh-pool rounds a failed task gets before the parent runs it.
RETRIES = 1

#: One executed cell: (result, sim_seconds, reused_from).
Timed = Tuple[RunResult, float, Optional[str]]


def _run_cells(specs: Sequence[JobSpec]) -> Iterator[Timed]:
    """Build the specs' workload once and simulate them on it in order,
    yielding one :data:`Timed` per cell.

    The specs share workload, scale, config and seed, so a later rung
    may copy an earlier one's result (see :func:`simulate`)."""
    first = specs[0]
    workload = build_workload(first.workload, first.scale,
                              num_cores=first.num_tiles, seed=first.seed)
    for spec in specs:
        source = reused_from(workload, spec.protocol, spec.config)
        start = time.perf_counter()
        result = simulate(workload, spec.protocol, spec.config)
        yield result, time.perf_counter() - start, source


def _run_task(specs: Sequence[JobSpec]) -> List[Timed]:
    """Pool entry point: every cell of one task, returned together."""
    return list(_run_cells(specs))


def _tasks(specs: Sequence[JobSpec], by_kind: bool) -> List[List[int]]:
    """Spec indices grouped into tasks, both in spec order: one task per
    (workload, scale, config, seed), split by protocol kind when
    ``by_kind`` (for the pool; see the module docstring)."""
    tasks: Dict[tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        key = (spec.workload, spec.scale, spec.config, spec.seed)
        if by_kind:
            key += (protocol(spec.protocol).kind,)
        tasks.setdefault(key, []).append(i)
    return list(tasks.values())


def _pool_context():
    import multiprocessing

    # fork skips re-importing the simulator in every worker and is
    # available on every POSIX platform; fall back to the default
    # (spawn) elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool_round(specs: Sequence[JobSpec], tasks: List[List[int]],
                    jobs: int, attempts: List[int],
                    finish: Callable[[List[int], Iterable[Timed]], None]
                    ) -> List[List[int]]:
    """Run ``tasks`` in a fresh pool; returns the ones that failed.

    A job error and a dead worker (``BrokenProcessPool``) both fail the
    whole task and count one attempt against each of its cells; the
    caller decides whether to retry.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

    failed: List[List[int]] = []
    ex = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             mp_context=_pool_context())
    # Forked workers inherit this process's heap.  Frozen, it is skipped
    # by their per-cell gc.collect() (see simulate), which would
    # otherwise write to, and so copy, every inherited page.
    gc.freeze()
    try:
        futures = {ex.submit(_run_task, [specs[i] for i in task]): task
                   for task in tasks}
        for future in as_completed(futures):
            task = futures[future]
            for i in task:
                attempts[i] += 1
            try:
                timed = future.result()
            except Exception:
                failed.append(task)
            else:
                finish(task, timed)
    finally:
        ex.shutdown(cancel_futures=True)
        gc.unfreeze()
    return sorted(failed)


def run_jobs(specs: Sequence[JobSpec],
             jobs: int = 1,
             notify: Optional[Callable[[int, JobOutcome], None]] = None,
             ) -> List[JobOutcome]:
    """Execute every spec, returning outcomes in input order.

    ``jobs <= 1`` runs the tasks serially in-process (deterministic
    ordering — the reference path), and so does a sweep of only one
    kind-split task.  Otherwise the kind-split tasks run in a process
    pool opened for this call; a task that fails is retried
    ``RETRIES`` times, each round in a fresh pool, and then once
    serially here.  ``notify(index, outcome)``, when given, fires as
    each cell completes; a pool task's cells complete together.
    """
    specs = list(specs)
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    attempts = [0] * len(specs)

    def finish(task: List[int], timed: Iterable[Timed]) -> None:
        for i, (result, elapsed, source) in zip(task, timed):
            outcomes[i] = JobOutcome(specs[i], result, elapsed,
                                     attempts[i], from_cache=False,
                                     reused_from=source)
            if notify is not None:
                notify(i, outcomes[i])

    remaining = _tasks(specs, by_kind=False)
    pooled = _tasks(specs, by_kind=True) if jobs > 1 else []
    if len(pooled) > 1:
        remaining = pooled
        for _round in range(RETRIES + 1):
            if not remaining:
                break
            remaining = _run_pool_round(specs, remaining, jobs, attempts,
                                        finish)
    # Serial path, and the last resort for pool stragglers: a
    # deterministic job error surfaces here with its real traceback.
    for task in remaining:
        for i in task:
            attempts[i] += 1
        finish(task, _run_cells([specs[i] for i in task]))
    return outcomes  # type: ignore[return-value]


def sweep(specs: Sequence[JobSpec],
          jobs: int = 1,
          store: Optional[ResultStore] = None,
          use_cache: bool = True,
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

    run_jobs([specs[i] for i in pending], jobs=jobs, notify=notify)
    return outcomes  # type: ignore[return-value]


def sweep_grid(workloads: Optional[Sequence[str]] = None,
               protocols: Optional[Sequence[str]] = None,
               scale: Optional[ScaleConfig] = None,
               config: Optional[SystemConfig] = None,
               seed: int = DEFAULT_SEED,
               jobs: int = 1,
               store: Optional[ResultStore] = None,
               use_cache: bool = True,
               progress: Optional[ProgressFn] = None) -> Grid:
    """Sweep the (workload x protocol) grid; returns paper-order results.

    Drop-in data source for the figure/report renderers:
    ``grid[workload][protocol] -> RunResult``.  One machine shape per
    call (the config's); use :func:`sweep_shapes` for a tiles axis.
    """
    specs = expand_grid(workloads, protocols, scale, config, seed=seed)
    outcomes = sweep(specs, jobs=jobs, store=store, use_cache=use_cache,
                     progress=progress)
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
                     progress=progress)
    shapes: Dict[int, Grid] = {}
    for outcome in outcomes:
        spec = outcome.spec
        shapes.setdefault(spec.num_tiles, {}).setdefault(
            spec.workload, {})[spec.protocol] = outcome.result
    return shapes
