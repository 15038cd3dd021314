"""System, protocol and scaling configuration.

``SystemConfig`` holds the machine axes something varies: the tile
count, the cache and Bloom-filter capacities that ``scaled_system``
shrinks with the inputs, and the write-combining table size of the
Section 5.2.2 ablation.  The rest of the paper's Table 4.1 machine is
fixed, and each fixed parameter is a constant in the module that models
it (link width in ``common.addressing``, link latency in
``network.mesh``, DRAM timings in ``dram.model``, associativities in
``coherence.kernel``, ...).  ``ProtocolConfig`` encodes the feature
flags that distinguish the nine protocol configurations of Section 3.
``ScaleConfig`` lets callers pick the paper's full input sizes or
proportionally scaled-down inputs that run quickly in pure Python.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields, replace

from repro.common.addressing import LINE_BYTES, WORD_BYTES

#: Machine shapes the model is validated for: square meshes from 2x2
#: (4 tiles) up to 8x8 (64 tiles).  The paper evaluates only 4x4.
MIN_MESH_WIDTH = 2
MAX_MESH_WIDTH = 8


@dataclass(frozen=True)
class SystemConfig:
    """The varied axes of the simulated tiled CMP (paper Table 4.1).

    The machine *shape* is ``num_tiles``: ``mesh_width`` is its square
    root, and the four memory controllers sit on the mesh corners.  Any
    square mesh from 2x2 to 8x8 works; the paper's machine is the
    default 16-tile 4x4.  Every other Table 4.1 parameter is fixed.
    """

    num_tiles: int = 16

    l1_kb: int = 32
    l2_slice_kb: int = 256

    write_combine_entries: int = 32         # DeNovo write-combining table

    # Bloom filter geometry for "L2 Request Bypass" (paper Section 4.4).
    bloom_entries: int = 512
    bloom_filters_per_slice: int = 32

    def __post_init__(self) -> None:
        width = self.mesh_width
        if width * width != self.num_tiles:
            raise ValueError("num_tiles must be mesh_width squared")
        if not (MIN_MESH_WIDTH <= width <= MAX_MESH_WIDTH):
            raise ValueError(
                f"mesh_width must be between {MIN_MESH_WIDTH} and "
                f"{MAX_MESH_WIDTH} (got {width}); the model is validated "
                f"for 2x2 through 8x8 meshes")

    @property
    def mesh_width(self) -> int:
        return math.isqrt(self.num_tiles)

    @property
    def line_bytes(self) -> int:
        """Fixed by the address layout (``common.addressing``): every
        protocol moves 16-word lines, so the size is not a setting."""
        return LINE_BYTES

    @property
    def word_bytes(self) -> int:
        """Fixed by the address layout, like :attr:`line_bytes`."""
        return WORD_BYTES

    @property
    def l1_lines(self) -> int:
        return self.l1_kb * 1024 // self.line_bytes

    @property
    def l2_slice_lines(self) -> int:
        return self.l2_slice_kb * 1024 // self.line_bytes

    def mc_placement(self) -> tuple:
        """Tile ids hosting this machine's memory controllers."""
        return corner_tiles(self.mesh_width)


def corner_tiles(mesh_width: int) -> tuple:
    """Tile ids of the four mesh corners, where the memory controllers
    sit."""
    if mesh_width < 2:
        raise ValueError(
            f"a {mesh_width}x{mesh_width} mesh has no four distinct "
            f"corners; mesh_width must be at least 2")
    last = mesh_width - 1
    return (
        0,
        last,
        mesh_width * last,
        mesh_width * last + last,
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Feature flags selecting one protocol rung.

    ``kind`` picks the protocol core (``MesiSystem`` or
    ``DenovoSystem``); each core copies the flags it reads into
    attributes when it is built.  A new rung is a new flag combination
    in the ``PROTOCOLS`` table below.
    """

    name: str
    kind: str                         # "mesi" | "denovo"
    mem_to_l1: bool = False           # Memory Controller to L1 Transfer
    dirty_wb_only: bool = False       # Dirty-words-only writebacks (MESI)
    l2_write_validate: bool = False   # L2 Write-Validate (DeNovo only)
    l2_dirty_wb_only: bool = False    # Dirty-words-only L2->mem writebacks
    flex_l1: bool = False             # Flex for cache-sourced responses
    flex_l2: bool = False             # Flex extended to memory responses
    bypass_l2_response: bool = False  # L2 Response Bypass
    bypass_l2_request: bool = False   # L2 Request Bypass (Bloom filters)

    def __post_init__(self) -> None:
        if self.kind not in ("mesi", "denovo"):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == "mesi":
            denovo_only = (
                self.l2_write_validate or self.l2_dirty_wb_only
                or self.flex_l1 or self.flex_l2
                or self.bypass_l2_response or self.bypass_l2_request
            )
            if denovo_only:
                raise ValueError("DeNovo-only optimization on a MESI config")
        elif self.dirty_wb_only:
            raise ValueError(
                "dirty_wb_only is a MESI flag; DeNovo writebacks are "
                "always dirty-words-only")
        if self.flex_l2 and not self.flex_l1:
            raise ValueError("flex_l2 requires flex_l1")
        if self.bypass_l2_request and not self.bypass_l2_response:
            raise ValueError("request bypass requires response bypass")

    def enabled_flags(self) -> tuple:
        """Names of the optimization flags this rung turns on."""
        return tuple(flag for flag in PROTOCOL_FLAGS if getattr(self, flag))


#: Every optimization flag of ``ProtocolConfig``, in field order.
PROTOCOL_FLAGS = tuple(f.name for f in fields(ProtocolConfig)
                       if f.name not in ("name", "kind"))


def _mesi(name: str, **flags) -> ProtocolConfig:
    return ProtocolConfig(name=name, kind="mesi", **flags)


def _denovo(name: str, **flags) -> ProtocolConfig:
    return ProtocolConfig(name=name, kind="denovo", **flags)


def _lookup(table: dict, kind: str, name: str):
    """``table[name]``, or a KeyError listing the known names and the
    near misses of ``name``."""
    try:
        return table[name]
    except KeyError:
        pass
    close = difflib.get_close_matches(name, list(table), n=2, cutoff=0.4)
    if not close:
        exact = {known.lower(): known for known in table}.get(name.lower())
        close = [exact] if exact else []
    hint = f"; did you mean {' or '.join(close)}?" if close else ""
    raise KeyError(f"unknown {kind} {name!r}; known: {', '.join(table)}"
                   f"{hint}") from None


#: Every protocol rung by name.  The first nine are the paper's ladder
#: (Sections 3.2-3.3) in the order of every figure's x-axis; the two
#: after them go beyond the paper and run only when named:
#: ``MDirtyWB`` is MESI with dirty-words-only writebacks (L1->L2 and
#: L2->mem), and ``DWordHybrid`` is DeNovo with line-granular L2
#: write-miss fills but word-granular L2->mem writebacks, the
#: writeback half of DValidateL2.
PROTOCOLS = {cfg.name: cfg for cfg in (
    _mesi("MESI"),
    _mesi("MMemL1", mem_to_l1=True),
    _denovo("DeNovo"),
    _denovo("DFlexL1", flex_l1=True),
    _denovo("DValidateL2", l2_write_validate=True, l2_dirty_wb_only=True),
    _denovo("DMemL1", l2_write_validate=True, l2_dirty_wb_only=True,
            mem_to_l1=True),
    _denovo("DFlexL2", l2_write_validate=True, l2_dirty_wb_only=True,
            mem_to_l1=True, flex_l1=True, flex_l2=True),
    _denovo("DBypL2", l2_write_validate=True, l2_dirty_wb_only=True,
            mem_to_l1=True, flex_l1=True, flex_l2=True,
            bypass_l2_response=True),
    _denovo("DBypFull", l2_write_validate=True, l2_dirty_wb_only=True,
            mem_to_l1=True, flex_l1=True, flex_l2=True,
            bypass_l2_response=True, bypass_l2_request=True),
    _mesi("MDirtyWB", dirty_wb_only=True),
    _denovo("DWordHybrid", l2_dirty_wb_only=True),
)}

#: The paper's nine-rung ladder (every figure's x-axis order).
PROTOCOL_ORDER = tuple(PROTOCOLS)[:9]


def protocol(name: str) -> ProtocolConfig:
    """Look up a protocol rung by name."""
    return _lookup(PROTOCOLS, "protocol", name)


@dataclass(frozen=True)
class ScaleConfig:
    """Input-size scaling for the six workloads.

    ``factor=1.0`` reproduces the paper's Table 4.2 sizes; the default
    ``SMALL`` scale shrinks each input while preserving the ratios that
    drive the paper's effects (working set vs. L2 size, radix buckets vs.
    L1 lines, struct layouts).
    """

    # The bypass apps' working sets must clearly exceed the (scaled) L2,
    # as the paper's premise requires ("data sets greatly exceeded the
    # size of the L2"): FFT 2x, radix 1.5x, kD-tree 1.4x the 128KB L2.
    name: str = "small"
    lu_matrix: int = 96           # paper: 512 (16x16 blocks kept)
    fft_points: int = 16384       # paper: 256K
    radix_keys: int = 24576       # paper: 4M
    radix_buckets: int = 1024     # paper: 1024 (kept: > L1 lines matters)
    barnes_bodies: int = 512      # paper: 16K
    fluid_cells: int = 1024       # paper: simmedium (~100K cells)
    kdtree_triangles: int = 4096  # paper: bunny (~69K triangles)

    @staticmethod
    def paper() -> "ScaleConfig":
        return ScaleConfig(
            name="paper", lu_matrix=512, fft_points=262_144,
            radix_keys=4_000_000, barnes_bodies=16_384,
            fluid_cells=100_000, kdtree_triangles=69_451)

    @staticmethod
    def tiny() -> "ScaleConfig":
        """Very small inputs for unit tests."""
        return ScaleConfig(
            name="tiny", lu_matrix=32, fft_points=1024,
            radix_keys=2048, radix_buckets=256, barnes_bodies=128,
            fluid_cells=128, kdtree_triangles=256)


@dataclass(frozen=True)
class EnergyModelConfig:
    """Per-event energy cost table for one technology point.

    The post-hoc energy model (:mod:`repro.energy`) multiplies these
    CACTI/McPAT-style costs by the event counters a run records
    (``RunResult.energy_counters``, traffic flit-hops, DRAM commands,
    busy cycles) and adds leakage scaled by execution time.  The values
    are *relative-fidelity* estimates — plausible magnitudes with
    faithful ratios between components — not silicon-validated numbers;
    cross-rung and cross-shape comparisons are meaningful, absolute
    joules are indicative only.

    Dynamic costs are picojoules per event; leakage is milliwatts per
    hardware unit (tile, L2 slice, router, memory controller, DRAM
    channel), multiplied by the unit count of the simulated machine.
    """

    name: str
    process_nm: int

    # Dynamic energy per event (picojoules).
    core_cycle_pj: float          # per busy (non-stalled) core cycle
    l1_probe_pj: float            # per L1 tag-array probe
    l1_word_pj: float             # per word moved into an L1 data array
    l2_probe_pj: float            # per L2 tag-array probe
    l2_word_pj: float             # per word moved into an L2 data array
    bloom_op_pj: float            # per Bloom filter query/update
    router_flit_hop_pj: float     # per flit per router traversal
    link_flit_hop_pj: float       # per flit per link traversal
    mc_request_pj: float          # per memory-controller command
    dram_activate_pj: float       # per row ACTIVATE
    dram_precharge_pj: float      # per row PRECHARGE
    dram_access_pj: float         # per line burst read or written

    # Leakage power per unit (milliwatts), scaled by execution time.
    core_leak_mw: float           # per tile (core logic)
    l1_leak_mw: float             # per tile (L1 arrays)
    l2_leak_mw: float             # per L2 slice
    noc_leak_mw: float            # per router
    mc_leak_mw: float             # per memory controller
    dram_leak_mw: float           # per DRAM channel (background power)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name in ("name",):
                continue
            value = getattr(self, f.name)
            if not value >= 0:       # also rejects NaN
                raise ValueError(
                    f"energy model {self.name!r}: {f.name} must be a "
                    f"non-negative number (got {value!r})")


#: Named technology presets for the energy model, resolved by the
#: :mod:`repro.energy` subsystem and ``python -m repro report --preset``.
#: Two process nodes.  The 22nm point scales dynamic energy by ~0.45x of
#: the 45nm point while leakage shrinks only ~0.65x — the classic
#: "leakage fraction grows as the node shrinks" trend — so the two
#: presets genuinely reorder EDP trade-offs rather than rescaling them.
ENERGY_MODELS = {em.name: em for em in (
    EnergyModelConfig(
        name="45nm", process_nm=45,
        core_cycle_pj=18.0,
        l1_probe_pj=2.6, l1_word_pj=4.4,
        l2_probe_pj=6.1, l2_word_pj=9.2,
        bloom_op_pj=0.8,
        router_flit_hop_pj=3.6, link_flit_hop_pj=2.2,
        mc_request_pj=4.1,
        dram_activate_pj=1900.0, dram_precharge_pj=1300.0,
        dram_access_pj=5200.0,
        core_leak_mw=85.0, l1_leak_mw=18.0, l2_leak_mw=46.0,
        noc_leak_mw=12.0, mc_leak_mw=30.0, dram_leak_mw=110.0),
    EnergyModelConfig(
        name="22nm", process_nm=22,
        core_cycle_pj=8.1,
        l1_probe_pj=1.2, l1_word_pj=2.0,
        l2_probe_pj=2.7, l2_word_pj=4.1,
        bloom_op_pj=0.36,
        router_flit_hop_pj=1.6, link_flit_hop_pj=1.0,
        mc_request_pj=1.8,
        dram_activate_pj=1100.0, dram_precharge_pj=760.0,
        dram_access_pj=3000.0,
        core_leak_mw=55.0, l1_leak_mw=12.0, l2_leak_mw=30.0,
        noc_leak_mw=8.0, mc_leak_mw=20.0, dram_leak_mw=72.0),
)}

#: Preset used when callers don't pick one.
DEFAULT_ENERGY_MODEL = "45nm"


def energy_model(name: str) -> EnergyModelConfig:
    """Look up an energy-model preset by name."""
    return _lookup(ENERGY_MODELS, "energy model", name)


DEFAULT_SYSTEM = SystemConfig()
DEFAULT_SCALE = ScaleConfig()


def reshape_system(base: SystemConfig, num_tiles: int) -> SystemConfig:
    """Re-shape ``base`` to ``num_tiles`` tiles, preserving capacity ratios.

    The tile count is a sweep axis; the quantity the paper's effects
    hinge on is the ratio between each workload's working set and the
    *total* L2 (bypass only matters when the data set greatly exceeds
    it).  The working set does not change with the tile count, so the
    per-slice L2 capacity is scaled inversely to keep the total as
    close to constant as whole-KB slices allow — exact on the default
    power-of-two axis (4/16/64 tiles), rounded to the nearest KB per
    slice otherwise (e.g. a 64KB total over nine 3x3 slices becomes
    9x7KB = 63KB).  The per-slice Bloom banks shrink/grow with the
    slice.  Per-core resources (L1, store buffers, write-combining
    tables) stay fixed — more tiles genuinely means more aggregate
    private cache, exactly the effect a core-count scaling experiment
    studies.
    """
    if num_tiles == base.num_tiles:
        return base
    if num_tiles < 1:
        raise ValueError(f"num_tiles must be positive (got {num_tiles})")
    total_kb = base.l2_slice_kb * base.num_tiles
    slice_kb = max(1, (2 * total_kb + num_tiles) // (2 * num_tiles))
    filters = max(1, (2 * base.bloom_filters_per_slice * base.num_tiles
                      + num_tiles) // (2 * num_tiles))
    return replace(base, num_tiles=num_tiles, l2_slice_kb=slice_kb,
                   bloom_filters_per_slice=filters)


def scaled_system(scale: ScaleConfig, base: SystemConfig = DEFAULT_SYSTEM,
                  num_tiles: "int | None" = None) -> SystemConfig:
    """Shrink cache capacities in step with scaled-down inputs.

    The paper's effects depend on *ratios* between working sets and cache
    capacity (e.g. bypass only matters when the data set greatly exceeds
    the L2).  When inputs are scaled below the paper sizes we shrink the
    caches by a similar factor so those ratios, and hence the figure
    shapes, are preserved.

    ``num_tiles``, when given, additionally re-shapes the machine to
    that tile count via :func:`reshape_system` (total L2 capacity is
    preserved across shapes so the figure-driving ratios survive).
    """
    if scale.name == "paper":
        cfg = base
    elif scale.name == "tiny":
        # Bloom tables shrink with the inputs so filter-copy overhead
        # stays the ~0.5%-of-traffic the paper reports (Section 5.2.4).
        cfg = replace(base, l1_kb=2, l2_slice_kb=4,
                      bloom_entries=128, bloom_filters_per_slice=2)
    else:
        cfg = replace(base, l1_kb=8, l2_slice_kb=8,
                      bloom_entries=256, bloom_filters_per_slice=4)
    if num_tiles is not None:
        cfg = reshape_system(cfg, num_tiles)
    return cfg
