"""Durable, content-addressed on-disk store for simulation results.

One JSON file per (workload, protocol, key) cell, where the key is
derived from the full configuration (see :mod:`repro.runner.jobs`), so a
result is found again iff the exact same configuration is swept.

Properties the sweep runner relies on:

* **Atomic writes** — results are written to a uniquely named temp file
  and ``os.replace``d into place, so concurrent writers (pool workers,
  parallel pytest sessions) never interleave partial content and readers
  never observe a torn file.
* **Corrupt-file tolerance** — any unreadable, truncated or
  wrong-schema file loads as ``None``; callers fall back to
  re-simulation and the next save repairs the file.
* **Versioned schema** — files carry a ``schema_version``; a file with
  any other version (or none) loads as ``None`` and is re-simulated.
* **Relocatable** — the directory defaults to ``.repro_cache/`` under
  the current directory and is overridden by ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path
from typing import Iterator, Optional

from repro.core.stats import RunResult
from repro.waste.profiler import Category

#: Current on-disk schema.
SCHEMA_VERSION = 1

_tmp_counter = itertools.count()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache/`` under cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


# ----------------------------------------------------------------------
# RunResult <-> plain-dict serialization
# ----------------------------------------------------------------------

def result_to_dict(result: RunResult) -> dict:
    return {
        "workload": result.workload,
        "protocol": result.protocol,
        "traffic": result.traffic,
        "l1_waste": {c.value: n for c, n in result.l1_waste.items()},
        "l2_waste": {c.value: n for c, n in result.l2_waste.items()},
        "mem_waste": {c.value: n for c, n in result.mem_waste.items()},
        "time": result.time,
        "exec_cycles": result.exec_cycles,
        "events": result.events,
        "protocol_stats": result.protocol_stats,
        "dram_stats": result.dram_stats,
        "energy_counters": result.energy_counters,
    }


def result_from_dict(data: dict) -> RunResult:
    def cats(d):
        return {Category(k): v for k, v in d.items()}

    return RunResult(
        workload=data["workload"],
        protocol=data["protocol"],
        traffic=data["traffic"],
        l1_waste=cats(data["l1_waste"]),
        l2_waste=cats(data["l2_waste"]),
        mem_waste=cats(data["mem_waste"]),
        time=data["time"],
        exec_cycles=data["exec_cycles"],
        events=data["events"],
        protocol_stats=data["protocol_stats"],
        dram_stats=data["dram_stats"],
        energy_counters=data["energy_counters"],
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class ResultStore:
    """Directory of cached :class:`RunResult` cells."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else default_cache_dir())

    def path_for(self, workload: str, protocol: str, key: str) -> Path:
        return self.directory / f"{workload}_{protocol}_{key}.json"

    def save(self, result: RunResult, key: str) -> Path:
        """Atomically persist one result; returns the cell's path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.workload, result.protocol, key)
        envelope = {"schema_version": SCHEMA_VERSION,
                    "result": result_to_dict(result)}
        # Unique temp name per writer: pid for processes, thread id and a
        # counter for threads sharing one store.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}"
            f".{next(_tmp_counter)}.tmp")
        try:
            tmp.write_text(json.dumps(envelope))
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path

    def load(self, workload: str, protocol: str,
             key: str) -> Optional[RunResult]:
        """The cached result, or ``None`` if absent/corrupt/stale."""
        path = self.path_for(workload, protocol, key)
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (not isinstance(raw, dict)
                or raw.get("schema_version") != SCHEMA_VERSION):
            return None
        payload = raw.get("result")
        if not isinstance(payload, dict):
            return None
        try:
            return result_from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    # -- maintenance -------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Paths of every stored cell (and stray temp files)."""
        if not self.directory.is_dir():
            return iter(())
        return iter(sorted(
            p for p in self.directory.iterdir()
            if p.suffix == ".json" or p.name.endswith(".tmp")))

    def clear(self) -> int:
        """Delete every stored cell; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for p in self.entries() if p.suffix == ".json")
