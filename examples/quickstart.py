#!/usr/bin/env python3
"""Quickstart: simulate one workload under MESI and fully-optimized DeNovo.

Builds the radix-sort workload at a small scale, runs it under the
baseline MESI protocol and under DBypFull (DeNovo with every optimization
of the paper), and prints the traffic and waste comparison — the paper's
headline claim in miniature.

Run:  python examples/quickstart.py
"""

from repro import ScaleConfig, build_workload, simulate
from repro.analysis.report import CLAIMS
from repro.common.config import scaled_system
from repro.network import traffic as T
from repro.waste.profiler import Category
from repro.workloads.trace import OP_LOAD, OP_STORE


def describe(result) -> None:
    print(f"\n--- {result.protocol} on {result.workload} ---")
    print(f"execution time : {result.exec_cycles:,} cycles")
    print(f"network traffic: {result.traffic_total():,.0f} flit-hops")
    for major in (T.LD, T.ST, T.WB, T.OVH):
        print(f"  {major:4s}: {result.traffic_major(major):12,.0f}")
    fetched = result.words_fetched("l1")
    used = result.used_words("l1")
    if fetched:
        print(f"L1 words fetched: {fetched:,} ({used / fetched:.1%} used)")
    print(f"waste share of traffic: {result.waste_fraction_of_traffic():.1%}")


def main() -> None:
    scale = ScaleConfig.tiny()          # fast demo; ScaleConfig() is fuller
    config = scaled_system(scale)
    workload = build_workload("radix", scale)
    memory_ops = sum(kind in (OP_LOAD, OP_STORE)
                     for trace in workload.traces for kind, _arg in trace)
    print(f"workload: radix — {memory_ops:,} memory ops, "
          f"{workload.num_barriers} barriers, 16 cores")

    mesi = simulate(workload, "MESI", config)
    best = simulate(workload, "DBypFull", config)
    describe(mesi)
    describe(best)

    saving = 1 - best.traffic_total() / mesi.traffic_total()
    speedup = 1 - best.exec_cycles / mesi.exec_cycles
    print(f"\nDBypFull vs MESI: {saving:.1%} less traffic, "
          f"{speedup:.1%} faster")
    paper = {claim.label: claim.paper for claim in CLAIMS}
    print(f"(the paper reports "
          f"{paper['Avg traffic reduction, DBypFull vs MESI']:.1%} less "
          f"traffic and "
          f"{paper['Avg exec-time reduction, DBypFull vs MESI']:.1%} "
          f"faster on average across six benchmarks)")


if __name__ == "__main__":
    main()
