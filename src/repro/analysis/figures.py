"""Figure and table regeneration (paper Section 5).

Every renderer takes the ``{workload: {protocol: RunResult}}`` grid
produced by :func:`repro.runner.sweep_grid` and returns both a
structured table (rows of floats, suitable for assertions and plotting)
and a formatted text rendition mirroring the paper's figure.

All figures are normalized per-workload to the MESI bar, exactly as the
paper normalizes (Figures 5.1-5.3: "All bars are normalized to MESI").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.coherence.kernel import L1_ASSOC, L2_ASSOC
from repro.common.addressing import LINK_BYTES
from repro.core.core import CORE_GHZ
from repro.core.stats import RunResult, TIME_BUCKETS, TIME_LABELS
from repro.dram.model import DRAM_BANKS, DRAM_RANKS
from repro.network import traffic as T
from repro.network.mesh import LINK_LATENCY
from repro.waste.profiler import Category
from repro.workloads.lu import LU_BLOCK

Grid = Dict[str, Dict[str, RunResult]]

#: Figure 5.1a stack order.
MAJOR_LABELS = ((T.LD, "LD"), (T.ST, "ST"), (T.WB, "WB"),
                (T.OVH, "Overhead"))

#: Figure 5.1b/c stack order (bottom to top).
LDST_STACK = (
    (T.REQ_CTL, "Req Ctl"),
    (T.RESP_CTL, "Resp Ctl"),
    (T.RESP_L1_USED, "Resp L1 Used"),
    (T.RESP_L1_WASTE, "Resp L1 Waste"),
    (T.RESP_L2_USED, "Resp L2 Used"),
    (T.RESP_L2_WASTE, "Resp L2 Waste"),
)

#: Figure 5.1d stack order.
WB_STACK = (
    (T.WB_CONTROL, "Control"),
    (T.WB_L2_USED, "L2 Used"),
    (T.WB_L2_WASTE, "L2 Waste"),
    (T.WB_MEM_USED, "Mem Used"),
    (T.WB_MEM_WASTE, "Mem Waste"),
)

#: Figure 5.3 category order (bottom to top).
WASTE_STACK = (
    (Category.USED, "Used Words"),
    (Category.FETCH, "Fetch Waste"),
    (Category.WRITE, "Write Waste"),
    (Category.INVALIDATE, "Invalidate Waste"),
    (Category.EVICT, "Evict Waste"),
    (Category.UNEVICTED, "Unevicted Waste"),
    (Category.EXCESS, "Excess Waste"),
)


@dataclass
class FigureTable:
    """One reproduced figure: stacked, MESI-normalized percentages.

    ``rows[workload][protocol][segment_label]`` is the segment's height in
    percent of the workload's MESI total.
    """

    figure_id: str
    title: str
    segment_labels: Tuple[str, ...]
    rows: Dict[str, Dict[str, Dict[str, float]]]

    def bar_total(self, workload: str, protocol: str) -> float:
        return sum(self.rows[workload][protocol].values())

    def segment(self, workload: str, protocol: str, label: str) -> float:
        return self.rows[workload][protocol][label]

    def average_total(self, protocol: str) -> float:
        """Mean normalized bar height for one protocol across workloads."""
        totals = [self.bar_total(w, protocol) for w in self.rows]
        return sum(totals) / len(totals) if totals else 0.0

    def render(self, width: int = 9) -> str:
        """Text rendition: one table per workload, protocols as rows."""
        lines = [f"=== {self.figure_id}: {self.title} ===",
                 "(percent of each workload's MESI total)"]
        header = "  protocol".ljust(14) + "".join(
            lbl[:width].rjust(width + 1) for lbl in self.segment_labels
        ) + "   TOTAL"
        for workload, protos in self.rows.items():
            lines.append(f"-- {workload}")
            lines.append(header)
            for proto in protos:
                segs = protos[proto]
                cells = "".join(
                    f"{segs[lbl]:{width + 1}.1f}"
                    for lbl in self.segment_labels)
                lines.append(
                    f"  {proto:<12s}{cells}{self.bar_total(workload, proto):8.1f}")
        avg = ", ".join(
            f"{p}={self.average_total(p):.1f}%"
            for p in next(iter(self.rows.values())))
        lines.append(f"average totals: {avg}")
        return "\n".join(lines)


def _normalize_grid(grid: Grid, value_fn, segment_labels) -> Dict:
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, protos in grid.items():
        baseline = sum(value_fn(protos["MESI"]).values())
        if baseline <= 0:
            baseline = 1.0
        rows[workload] = {}
        for proto in protos:
            values = value_fn(protos[proto])
            rows[workload][proto] = {
                label: 100.0 * values.get(label, 0.0) / baseline
                for label in segment_labels}
    return rows


# ----------------------------------------------------------------------
# Figure 5.1a — overall network traffic
# ----------------------------------------------------------------------

def figure_5_1a(grid: Grid) -> FigureTable:
    labels = tuple(lbl for _key, lbl in MAJOR_LABELS)

    def values(result: RunResult) -> Dict[str, float]:
        return {lbl: result.traffic_major(key) for key, lbl in MAJOR_LABELS}

    return FigureTable(
        "Figure 5.1a", "Overall network traffic (flit-hops)",
        labels, _normalize_grid(grid, values, labels))


# ----------------------------------------------------------------------
# Figures 5.1b / 5.1c — LD and ST breakdowns
# ----------------------------------------------------------------------

def _ldst_figure(grid: Grid, major: str, figure_id: str,
                 title: str) -> FigureTable:
    labels = tuple(lbl for _key, lbl in LDST_STACK)

    def values(result: RunResult) -> Dict[str, float]:
        return {lbl: result.traffic_bucket(major, key)
                for key, lbl in LDST_STACK}

    return FigureTable(figure_id, title, labels,
                       _normalize_grid(grid, values, labels))


def figure_5_1b(grid: Grid) -> FigureTable:
    return _ldst_figure(grid, T.LD, "Figure 5.1b",
                        "LD network traffic breakdown")


def figure_5_1c(grid: Grid) -> FigureTable:
    return _ldst_figure(grid, T.ST, "Figure 5.1c",
                        "ST network traffic breakdown")


# ----------------------------------------------------------------------
# Figure 5.1d — WB breakdown
# ----------------------------------------------------------------------

def figure_5_1d(grid: Grid) -> FigureTable:
    labels = tuple(lbl for _key, lbl in WB_STACK)

    def values(result: RunResult) -> Dict[str, float]:
        return {lbl: result.traffic_bucket(T.WB, key)
                for key, lbl in WB_STACK}

    return FigureTable("Figure 5.1d", "WB network traffic breakdown",
                       labels, _normalize_grid(grid, values, labels))


# ----------------------------------------------------------------------
# Figure 5.2 — execution time
# ----------------------------------------------------------------------

def figure_5_2(grid: Grid) -> FigureTable:
    """Execution time normalized to MESI, stacked by stall category.

    The bar height is the workload's execution time (max core finish),
    and the stack splits it in proportion to the aggregated per-core
    cycle attribution, mirroring the paper's Figure 5.2.
    """
    labels = tuple(TIME_LABELS[b] for b in TIME_BUCKETS)
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, protos in grid.items():
        baseline = protos["MESI"].exec_cycles or 1
        rows[workload] = {}
        for proto, result in protos.items():
            attributed = sum(result.time.values()) or 1.0
            height = 100.0 * result.exec_cycles / baseline
            rows[workload][proto] = {
                TIME_LABELS[b]: height * result.time[b] / attributed
                for b in TIME_BUCKETS}
    return FigureTable("Figure 5.2", "Execution time", labels, rows)


# ----------------------------------------------------------------------
# Figures 5.3a/b/c — words fetched, by waste category
# ----------------------------------------------------------------------

def _waste_figure(grid: Grid, level: str, figure_id: str,
                  title: str) -> FigureTable:
    labels = tuple(lbl for _cat, lbl in WASTE_STACK)
    attr = {"l1": "l1_waste", "l2": "l2_waste", "mem": "mem_waste"}[level]

    def values(result: RunResult) -> Dict[str, float]:
        counts = getattr(result, attr)
        return {lbl: float(counts.get(cat, 0)) for cat, lbl in WASTE_STACK}

    return FigureTable(figure_id, title, labels,
                       _normalize_grid(grid, values, labels))


def figure_5_3a(grid: Grid) -> FigureTable:
    return _waste_figure(grid, "l1", "Figure 5.3a",
                         "L1 fetch waste (words into L1)")


def figure_5_3b(grid: Grid) -> FigureTable:
    return _waste_figure(grid, "l2", "Figure 5.3b",
                         "L2 fetch waste (words into L2 from memory)")


def figure_5_3c(grid: Grid) -> FigureTable:
    return _waste_figure(grid, "mem", "Figure 5.3c",
                         "Memory fetch waste (words fetched from memory)")


ALL_FIGURES = {
    "5.1a": figure_5_1a,
    "5.1b": figure_5_1b,
    "5.1c": figure_5_1c,
    "5.1d": figure_5_1d,
    "5.2": figure_5_2,
    "5.3a": figure_5_3a,
    "5.3b": figure_5_3b,
    "5.3c": figure_5_3c,
}


# ----------------------------------------------------------------------
# Tables 4.1 / 4.2 — configuration tables
# ----------------------------------------------------------------------

def _size_kb(kb: int) -> str:
    return f"{kb // 1024}MB" if kb % 1024 == 0 else f"{kb}KB"


def _table_4_1_rows(cfg) -> List[Tuple[str, Tuple[str, ...]]]:
    """Table 4.1 for machine ``cfg``: each row's comma-separated fields."""
    return [
        ("Core", (f"{CORE_GHZ:g}GHz", "in-order")),
        ("L1D Cache (private)",
         (f"{cfg.l1_kb}KB", f"{L1_ASSOC}-way set associative",
          f"{cfg.line_bytes} byte cache lines")),
        ("L2 Cache (shared)",
         (f"{cfg.l2_slice_kb}KB slices "
          f"({_size_kb(cfg.l2_slice_kb * cfg.num_tiles)} total)",
          f"{L2_ASSOC}-way set associative",
          f"{cfg.line_bytes} byte cache lines")),
        ("Network",
         (f"{cfg.mesh_width}x{cfg.mesh_width} mesh network",
          f"{LINK_BYTES} byte links",
          f"{LINK_LATENCY} cycle link latency")),
        ("Memory Controller", ("FR-FCFS scheduling", "open page policy")),
        ("DRAM", ("DDR3-1066", f"{DRAM_BANKS} banks",
                  f"{DRAM_RANKS} ranks")),
    ]


def table_4_1(config=None) -> str:
    """Render the simulated-system parameter table (paper Table 4.1).

    A row of a ``config`` that differs from the paper's machine ends
    with the paper's values of the fields that differ.
    """
    from repro.common.config import SystemConfig
    paper = SystemConfig()
    cfg = config if config is not None else paper
    rows = []
    for (name, fields), (_, ref) in zip(_table_4_1_rows(cfg),
                                        _table_4_1_rows(paper)):
        value = ", ".join(fields)
        differ = [p for f, p in zip(fields, ref) if f != p]
        if differ:
            value += f" (paper: {', '.join(differ)})"
        rows.append((name, value))
    width = max(len(name) for name, _ in rows)
    lines = ["=== Table 4.1: Simulated system parameters ==="]
    lines += [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines)


def table_4_2(scale=None) -> str:
    """Render the application input-size table (paper Table 4.2)."""
    from repro.common.config import DEFAULT_SCALE
    sc = scale if scale is not None else DEFAULT_SCALE
    rows = [
        ("fluidanimate", f"{sc.fluid_cells} cells "
                         f"(paper: simmedium)"),
        ("LU", f"{sc.lu_matrix}x{sc.lu_matrix} matrix, "
               f"{LU_BLOCK}x{LU_BLOCK} blocks (paper: 512x512)"),
        ("FFT", f"{sc.fft_points} points (paper: 256K)"),
        ("radix", f"{sc.radix_keys} keys, {sc.radix_buckets} radix "
                  f"(paper: 4M keys, 1024 radix)"),
        ("Barnes-Hut", f"{sc.barnes_bodies} bodies (paper: 16K)"),
        ("kD-Tree", f"{sc.kdtree_triangles} triangles (paper: bunny)"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"=== Table 4.2: Application input sizes "
             f"(scale={sc.name}) ==="]
    lines += [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines)
