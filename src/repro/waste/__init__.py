"""Word-level waste characterization (the paper's Section 4.1 taxonomy).

The profilers track word instances as integer handles into a
:class:`WastePools` of ``array`` storage that lives for the whole run;
:class:`~repro.network.traffic.TrafficLedger` resolves the handles of
delivered data words through the same pool.
"""

from repro.waste.profiler import (
    CATEGORY_ORDER,
    CacheLevelProfiler,
    Category,
    MemoryProfiler,
    WastePools,
)

__all__ = [
    "CATEGORY_ORDER", "CacheLevelProfiler", "Category", "MemoryProfiler",
    "WastePools",
]
