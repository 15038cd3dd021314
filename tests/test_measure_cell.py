"""Smoke test: ``tools/measure_cell.py`` measures one tiny cell."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.common.config import (
    PROTOCOL_FLAGS, ScaleConfig, protocol, scaled_system)
from repro.core.context import SimContext
from repro.core.system import System
from repro.waste.profiler import PENDING
from repro.runner.store import result_to_dict
from repro.workloads import build_workload

TOOL = Path(__file__).resolve().parent.parent / "tools" / "measure_cell.py"


def test_measure_cell_prints_events_digest_time_and_top_sites(monkeypatch):
    """The printed figures equal those of a direct ``System`` run,
    acted flags and the side dict before finalize included.  A bypass
    rung on kD-tree keeps several pending instances of some addresses,
    so the side dict is not empty."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "kD-tree",
         "--protocol", "DBypFull", "--scale", "tiny", "--top", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines[:7])
    assert fields["cell"] == "kD-tree x DBypFull @ tiny seed 12345"

    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    system = System(build_workload("kD-tree", scale,
                                   num_cores=config.num_tiles),
                    protocol("DBypFull"), config)
    side_dict = []
    finalize = SimContext.finalize

    def count_side_dict_then_finalize(ctx):
        cat = ctx.mem_prof.pools.mem_cat
        sets = ctx.mem_prof._spill.values()
        side_dict.extend((len(sets), sum(map(len, sets)), sum(
            cat[handle] == PENDING for handles in sets
            for handle in handles)))
        finalize(ctx)

    monkeypatch.setattr(SimContext, "finalize", count_side_dict_then_finalize)
    result = system.run()
    text = json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    assert int(fields["events"]) == result.events
    assert fields["digest"] == hashlib.sha256(text.encode()).hexdigest()
    acted = system.proto_sys.acted
    assert acted, "a cell that reads no memory is no check"
    assert fields["acted_flags"].split() == [
        flag for flag in PROTOCOL_FLAGS if flag in acted]
    for key in ("build_cpu_s", "sim_cpu_s", "peak_rss_mib"):
        assert float(fields[key]) >= 0.0

    ctx = system.ctx
    levels = (("l1", ctx.l1_prof), ("l2", ctx.l2_prof), ("mem", ctx.mem_prof))
    for line, (level, prof) in zip(lines[7:10], levels):
        name, _, window, _, counted, _, excess, share = line.split()
        assert name == f"{level}_words"
        assert int(window) == prof.total_words() > 0
        assert int(counted) == sum(prof.counts().values())
        assert int(excess) == int(counted) - int(window)
        assert share.startswith("(") and share.endswith("%)")

    addrs, handles, pending = side_dict
    assert lines[10].split() == [
        "mem_index", "spilled_addrs", str(addrs), "handles", str(handles),
        "pending", str(pending)]
    # Lazy deletion leaves settled handles in some sets.
    assert 0 < pending < handles

    assert lines[11].startswith("tracemalloc live_at_finalize_mib ")
    sites = lines[12:]
    assert [site.split(".")[0].strip() for site in sites] == ["1", "2", "3"]
    assert all(" MiB " in site and ".py:" in site for site in sites)
