"""Stacked per-rung latency & stall breakdown from attribution profiles.

Renders the :class:`~repro.obs.attrib.AttribCollector` profiles of a
protocol ladder as (a) one stacked cycle-accounting bar per rung —
compute plus the six stall causes, bar length proportional to the
rung's total core cycles so the paper's Figure 5.2 story (where does
DeNovo gain its time back?) is visible at a glance — and (b) a
per-rung miss-latency segment table showing which lifecycle segment
(request NoC, home occupancy, DRAM, fill return) each rung spends its
miss cycles in.

Profiles come from observed runs (``obs=ObsSession()``); use
:func:`collect_stall_profiles` or ``python -m repro stalls``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.attrib import SEGMENTS, STALL_CAUSES

#: One bar character per cycle bucket, compute first.
BUCKET_CHARS = {
    "compute": "#",
    "l1_wait": ".",
    "l2_home": "o",
    "remote_l1": "r",
    "dram": "M",
    "write_buffer": "w",
    "barrier": "=",
}

BUCKET_ORDER = ("compute",) + STALL_CAUSES


def _bucket_cycles(profile: dict) -> Dict[str, int]:
    out = {"compute": int(profile["compute_cycles"])}
    totals = profile["stalls"]["total"]
    for cause in STALL_CAUSES:
        out[cause] = int(totals.get(cause, 0))
    return out


def _segment_cycles(profile: dict) -> Dict[str, int]:
    """Load+store segment cycles merged per segment name."""
    merged = dict.fromkeys(SEGMENTS, 0)
    for per_op in profile["segments"].values():
        for name, entry in per_op.items():
            merged[name] += int(entry["cycles"])
    return merged


@dataclass
class StallsFigure:
    """Stacked cycle bars + segment shares, one row per rung."""

    workload: str
    num_tiles: int
    profiles: List[dict]
    width: int = 48

    def render(self) -> str:
        legend = "  ".join(f"{BUCKET_CHARS[b]}={b}" for b in BUCKET_ORDER)
        lines = [f"=== stall attribution: {self.workload} "
                 f"({self.num_tiles} tiles) ===",
                 f"bar length ~ total core cycles; {legend}"]
        buckets = [(_p["protocol"], _bucket_cycles(_p))
                   for _p in self.profiles]
        peak = max((sum(b.values()) for _, b in buckets), default=0)
        for protocol, per in buckets:
            total = sum(per.values())
            bar_len = (round(self.width * total / peak) if peak else 0)
            chars = []
            for bucket in BUCKET_ORDER:
                if total:
                    chars.append(BUCKET_CHARS[bucket]
                                 * round(bar_len * per[bucket] / total))
            bar = "".join(chars)[:self.width]
            stalled = total - per["compute"]
            share = stalled / total if total else 0.0
            lines.append(f"{protocol:<12s} |{bar:<{self.width}s}| "
                         f"stalled {share:6.1%}")
        lines.append("")
        lines.append("miss-latency segment shares "
                     "(percent of attributed miss cycles):")
        header = "rung          " + "".join(f"{s:>11s}" for s in SEGMENTS)
        lines.append(header)
        for profile in self.profiles:
            segs = _segment_cycles(profile)
            total = sum(segs.values())
            cells = "".join(
                f"{(segs[s] / total if total else 0.0):>10.1%} "
                for s in SEGMENTS)
            lines.append(f"{profile['protocol']:<14s}{cells}")
        return "\n".join(lines)


def figure_stalls(profiles: List[dict], num_tiles: int,
                  width: int = 48) -> StallsFigure:
    workload = profiles[0]["workload"] if profiles else "?"
    return StallsFigure(workload=workload, num_tiles=num_tiles,
                        profiles=list(profiles), width=width)


def collect_stall_profiles(workload: str, scale, protocols, config,
                           seed: Optional[int] = None) -> List[dict]:
    """One attribution profile per protocol rung.

    One trace build serves every rung, and each rung makes one
    ``simulate()`` call, in order.  A rung whose result ``simulate()``
    would copy from a rung already observed here (the two run event for
    event alike, see :func:`~repro.core.simulator.reused_from`) takes
    that copy and a copy of that rung's profile under its own name.
    Every other rung is observed; use the tiny scale for interactive
    turnaround.
    """
    from repro.core import simulator
    from repro.obs import ObsSession
    from repro.workloads import build_workload

    kwargs = {"num_cores": config.num_tiles}
    if seed is not None:
        kwargs["seed"] = seed
    built = build_workload(workload, scale, **kwargs)
    observed: Dict[str, dict] = {}
    profiles = []
    for protocol in protocols:
        source = simulator.reused_from(built, protocol, config)
        if source in observed:
            result = simulator.simulate(built, protocol, config)
            profile = copy.deepcopy(observed[source])
            profile["protocol"] = result.protocol
        else:
            obs = ObsSession(trace=False)
            result = simulator.simulate(built, protocol, config, obs=obs)
            profile = observed[result.protocol] = obs.attrib.report()
        profiles.append(profile)
    return profiles


def report_section(profiles: List[dict], num_tiles: int) -> str:
    """Markdown section around the figure, for the report body."""
    audits_ok = all(p["audits"]["ok"] for p in profiles)
    parts = ["## Latency & stall attribution (beyond the paper)\n",
             "Per-core cycle accounting and per-request miss-latency "
             "segments from an observed run of each rung "
             "(`python -m repro stalls`).  Conservation audits "
             f"{'pass' if audits_ok else 'FAIL'}: segments sum to "
             "end-to-end latency, compute + stalls equal total cycles, "
             "DRAM segments reconcile with `dram_stats`.\n",
             "```\n" + figure_stalls(profiles, num_tiles).render()
             + "\n```"]
    return "\n".join(parts)
