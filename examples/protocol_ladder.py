#!/usr/bin/env python3
"""Walk every protocol rung on one workload.

Reproduces, for a single benchmark, the x-axis of every figure in the
paper — MESI -> MMemL1 -> DeNovo -> DFlexL1 -> DValidateL2 -> DMemL1 ->
DFlexL2 -> DBypL2 -> DBypFull — and then continues through the
beyond-paper rungs of ``repro.PROTOCOLS`` (MDirtyWB, DWordHybrid),
printing normalized traffic (split into the paper's LD/ST/WB/overhead
categories), execution time, and the word-level waste taxonomy.

Run:  python examples/protocol_ladder.py [workload]
      (default kD-tree; any of: fluidanimate LU FFT radix barnes kD-tree)
"""

import sys

from repro import PROTOCOLS, ScaleConfig, build_workload, simulate
from repro.common.config import scaled_system
from repro.network import traffic as T
from repro.waste.profiler import CATEGORY_ORDER, Category


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "kD-tree"
    scale = ScaleConfig.tiny()
    config = scaled_system(scale)
    workload = build_workload(name, scale)
    print(f"workload: {workload.name} — {workload.description}")
    print(f"{'protocol':12s} {'traffic':>9s} {'LD':>6s} {'ST':>6s} "
          f"{'WB':>6s} {'OVH':>6s} {'exec':>6s}   waste breakdown "
          f"(L1 words)")

    # Table order: the paper ladder first (MESI leads and is the
    # normalization baseline), then the beyond-paper rungs.
    baseline = None
    for proto in PROTOCOLS:
        result = simulate(workload, proto, config)
        if baseline is None:
            baseline = result
        norm = 100.0 / baseline.traffic_total()
        exec_norm = 100.0 * result.exec_cycles / baseline.exec_cycles
        majors = " ".join(
            f"{result.traffic_major(m) * norm:6.1f}"
            for m in (T.LD, T.ST, T.WB, T.OVH))
        total_words = max(result.words_fetched("l1"), 1)
        waste = " ".join(
            f"{cat.value[:4]}={100 * result.l1_waste.get(cat, 0) / total_words:.0f}%"
            for cat in CATEGORY_ORDER
            if result.l1_waste.get(cat, 0) and cat is not Category.EXCESS)
        print(f"{proto:12s} {result.traffic_total() * norm:8.1f}% "
              f"{majors} {exec_norm:5.1f}%   {waste}")

    print("\n(all values normalized to the MESI row, as in the paper's "
          "Figures 5.1-5.3)")


if __name__ == "__main__":
    main()
