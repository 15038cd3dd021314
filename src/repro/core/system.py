"""Tiled-CMP assembly: wire cores, caches, protocol, network and DRAM.

``System`` builds one simulated machine for a (workload, protocol) pair and
``System.run()`` executes it to completion, returning a :class:`RunResult`.
This is the main entry point of the library; see also
:func:`repro.core.simulator.simulate` for the one-call convenience API.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence import DenovoSystem, MesiSystem
from repro.common.config import ProtocolConfig, SystemConfig
from repro.core.context import SimContext
from repro.core.core import Core
from repro.core.stats import RunResult, TimeStats
from repro.engine.events import Barrier
from repro.workloads.trace import Workload

#: Safety cap on simulation events; generous for all shipped workloads.
MAX_EVENTS = 200_000_000


class System:
    """One simulated tiled machine running one workload.

    The machine shape comes from the ``SystemConfig`` (the paper's
    16-tile 4x4 mesh by default; any square mesh from 2x2 to 8x8 is
    supported) and must match the workload's core count — build the
    workload with ``build_workload(name, scale,
    num_cores=config.num_tiles)`` for non-default shapes.
    """

    def __init__(self, workload: Workload, proto: ProtocolConfig,
                 config: Optional[SystemConfig] = None,
                 obs=None) -> None:
        self.workload = workload
        self.proto = proto
        self.config = config if config is not None else SystemConfig()
        self.obs = obs
        if workload.num_cores != self.config.num_tiles:
            raise ValueError(
                f"workload has {workload.num_cores} cores but the system "
                f"has {self.config.num_tiles} tiles")
        # Clone the region table: phase updates mutate annotations and the
        # same workload object is reused across protocol runs.
        self.regions = workload.regions.clone()
        self.ctx = SimContext(self.config, proto, self.regions)
        # ProtocolConfig accepts only these two kinds.
        core_cls = DenovoSystem if proto.kind == "denovo" else MesiSystem
        self.proto_sys = core_cls(self.ctx)
        self.barrier = Barrier(self.ctx.queue, workload.num_cores)
        self.ctx.barrier = self.barrier
        self.barrier.on_release(self._on_barrier_release)
        self._finished = 0
        self._measure_start = 0
        # Cumulative energy counts at the end of warm-up; components
        # count from cycle 0 and are never reset.
        self._energy_base: Dict[str, int] = {}
        self.cores = [
            Core(i, workload.traces[i], self.proto_sys, self.ctx,
                 self.barrier, self._core_finished)
            for i in range(workload.num_cores)
        ]
        # Observability attaches last so it can see the fully wired
        # machine; with obs=None (the default) nothing here runs and the
        # simulated machine is byte-identical to an unobserved one.
        if obs is not None:
            obs.attach(self)

    # ------------------------------------------------------------------

    def _core_finished(self, core_id: int, at: int) -> None:
        self._finished += 1

    def _on_barrier_release(self) -> None:
        index = self.barrier.barriers_passed - 1
        # DeNovo self-invalidation (MESI's hook is a no-op).
        written = self.workload.written_regions_at(index)
        self.proto_sys.on_barrier(set(written))
        # Software annotation updates for the next phase.
        for update in self.workload.updates_at(index):
            kwargs = {}
            if update.flex is not None:
                kwargs["flex"] = update.flex
            if update.bypass_l2 is not None:
                kwargs["bypass_l2"] = update.bypass_l2
            if kwargs:
                self.regions.update(update.region_id, **kwargs)
        # End of warm-up: open the measurement window.
        if (self.workload.warmup_barriers
                and self.barrier.barriers_passed
                == self.workload.warmup_barriers):
            self.ctx.mark_window()
            self._energy_base = self._counters()
            for core in self.cores:
                core.reset_time()
                # The cores resume right after this hook and will charge
                # (release - wait_start) to sync; that wait happened
                # during warm-up, so move the baseline to now.
                core._wait_start = self.ctx.queue.now
            self._measure_start = self.ctx.queue.now
            # Attribution windows follow the same reset so its
            # conservation audits compare like-scoped totals.
            if self.obs is not None:
                self.obs.on_measure_reset()

    # ------------------------------------------------------------------

    def _dram_stats(self) -> Dict[str, int]:
        """Whole-run DRAM statistics summed over the channels."""
        drams = self.ctx.drams.values()
        return {key: sum(getattr(dram, key) for dram in drams)
                for key in ("reads", "writes", "row_hits", "row_misses",
                            "activates", "precharges")}

    def _counters(self) -> Dict[str, int]:
        """Cumulative energy event counts since cycle 0."""
        counters = self.proto_sys.energy_counters()
        counters["noc_packets"] = self.ctx.mesh.stat_packets
        counters["noc_flit_hops"] = self.ctx.mesh.stat_flit_hops
        dram = self._dram_stats()
        for key in ("reads", "writes", "activates", "precharges"):
            counters[f"dram_{key}"] = dram[key]
        return counters

    def window_counters(self) -> Dict[str, int]:
        """Energy event counts in the measurement window: since the
        warm-up barrier, or the whole run for a workload without one."""
        base = self._energy_base
        return {key: count - base.get(key, 0)
                for key, count in self._counters().items()}

    # ------------------------------------------------------------------

    def run(self, max_events: int = MAX_EVENTS) -> RunResult:
        for core in self.cores:
            core.start(0)
        self.ctx.queue.run(max_events=max_events)
        if self._finished != len(self.cores):
            stuck = [c.core_id for c in self.cores if not c.finished]
            raise RuntimeError(
                f"simulation deadlocked; cores {stuck} did not finish "
                f"(cycle {self.ctx.queue.now})")
        # Flush protocol leftovers (e.g. DeNovo write-combining entries),
        # which may generate more messages.
        self.proto_sys.finalize()
        self.ctx.queue.run(max_events=max_events)
        self.ctx.finalize()
        if self.obs is not None:
            self.obs.finish(self)
        return self._collect()

    def _collect(self) -> RunResult:
        time_total = TimeStats()
        for core in self.cores:
            time_total.add(core.time)
        exec_cycles = max(c.finish_time or 0 for c in self.cores)
        exec_cycles -= self._measure_start
        # Explicit stats() protocol (no dir()-scan over stat_* attributes).
        proto_stats = self.proto_sys.stats()
        return RunResult(
            workload=self.workload.name,
            protocol=self.proto.name,
            traffic=self.ctx.ledger.breakdown(),
            l1_waste=self.ctx.l1_prof.counts(),
            l2_waste=self.ctx.l2_prof.counts(),
            mem_waste=self.ctx.mem_prof.counts(),
            time=time_total.as_dict(),
            exec_cycles=exec_cycles,
            # Sampler ticks are pure reads scheduled alongside the real
            # events; subtracting them keeps an observed run's result
            # bit-identical to the unobserved run (golden-grid pinned).
            events=self.ctx.queue.events_run
            - (self.obs.overhead_events if self.obs is not None else 0),
            protocol_stats=proto_stats,
            # dram_stats keeps its long-standing whole-run scope.
            dram_stats=self._dram_stats(),
            energy_counters=self.window_counters(),
        )
