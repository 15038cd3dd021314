#!/usr/bin/env python3
"""Observe one run: run counters, Chrome trace export, utilization timeline.

Attaches an ``ObsSession`` to a single simulation, then shows:

* the run's ``RunResult`` counters and the sampler's event overhead,
* the exported Chrome trace-event JSON (open it in
  https://ui.perfetto.dev to see barrier phases and DRAM bank activity),
* the per-tile link-utilization heat-strip timeline.

Run:  python examples/trace_timeline.py [workload] [protocol] [out.json]
"""

import sys

from repro import ScaleConfig, build_workload, simulate
from repro.analysis.timeline import figure_timeline
from repro.common.config import scaled_system
from repro.obs import ObsSession


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "FFT"
    protocol = sys.argv[2] if len(sys.argv) > 2 else "DeNovo"
    out_path = sys.argv[3] if len(sys.argv) > 3 else "trace.json"

    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    workload = build_workload(workload_name, scale)

    obs = ObsSession(sample_interval=2000)
    result = simulate(workload, protocol, config, obs=obs)

    print(f"observed run: {result.workload} / {result.protocol} — "
          f"{result.exec_cycles:,} cycles, {result.events:,} events")

    print("\nrun counters (measurement window):")
    for name in ("l1_probes", "l2_probes", "noc_packets", "noc_flit_hops",
                 "dram_reads", "dram_writes"):
        print(f"  {name:<16s} {result.energy_counters[name]:>14,}")
    print(f"  {'events':<16s} {result.events:>14,} "
          f"(+{obs.overhead_events} sampler ticks)")

    obs.export(out_path)
    print(f"\nChrome trace: {len(obs.trace.events())} events, "
          f"{len(obs.samples)} samples -> {out_path}")
    print("(load it in https://ui.perfetto.dev or chrome://tracing)")

    print()
    print(figure_timeline(obs).render())


if __name__ == "__main__":
    main()
