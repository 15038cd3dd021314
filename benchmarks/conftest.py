"""Shared fixtures for the paper-fidelity tests.

The full (6 workloads x 9 protocols) small-scale sweep runs once per
session through the runner subsystem and lands in its durable result
store (``.repro_cache/`` or ``$REPRO_CACHE_DIR``).  Every test then
regenerates one paper artifact from the stored grid and asserts the
paper's orderings; the headline bands live in
``repro.analysis.report.CLAIMS``.  ``python -m repro report`` prints
the same tables.

A cold store is repopulated on demand; set ``REPRO_JOBS`` to shard that
initial sweep across worker processes (same results, bit-identical).
"""

import os

import pytest

from repro.runner import sweep_grid


@pytest.fixture(scope="session")
def grid():
    """The full result grid at the default (small) scale."""
    jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    results = sweep_grid(jobs=jobs)
    # Engine sanity gate: every cell's ``events`` mirrors the event
    # queue's ``events_run`` at collection time; a cell reporting zero
    # events means the scheduler never drove the machine and whatever
    # figures follow would be regenerated from a hollow simulation.
    for workload, cells in results.items():
        for protocol, result in cells.items():
            assert result.events > 0, (
                f"{workload} x {protocol}: queue.events_run was 0")
    return results

