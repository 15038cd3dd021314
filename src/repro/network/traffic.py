"""Flit-hop traffic accounting with deferred used/waste attribution.

The paper's Figures 5.1a-d break network traffic into:

* major categories: load (LD), store (ST), writeback (WB), overhead (OVH);
* within LD/ST: request control, response control, and response data split
  by destination (L1 or L2) and usefulness (Used or Waste);
* within WB: control, and data split by destination (L2 or Mem) and
  dirty (Used) vs. unmodified (Waste);
* overhead sub-types (unblock, invalidation, ack, NACK, WB-control, bloom).

Whether a delivered data word was Used or Waste is only known once the
waste profiler classifies it (possibly at end of simulation), so data
flit-hops are recorded against the words' profiler handles and resolved
through the cache-level verdict pool by :meth:`TrafficLedger.finalize`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

from repro.waste.profiler import C_USED

#: Major traffic categories.
LD = "LD"
ST = "ST"
WB = "WB"
OVH = "OVH"
MAJORS = (LD, ST, WB, OVH)

#: Sub-buckets of LD and ST traffic (paper Figure 5.1b/c legend).
REQ_CTL = "req_ctl"
RESP_CTL = "resp_ctl"
RESP_L1_USED = "resp_l1_used"
RESP_L1_WASTE = "resp_l1_waste"
RESP_L2_USED = "resp_l2_used"
RESP_L2_WASTE = "resp_l2_waste"
LDST_BUCKETS = (REQ_CTL, RESP_CTL, RESP_L1_USED, RESP_L1_WASTE,
                RESP_L2_USED, RESP_L2_WASTE)

#: Sub-buckets of WB traffic (paper Figure 5.1d legend).
WB_CONTROL = "control"
WB_L2_USED = "l2_used"
WB_L2_WASTE = "l2_waste"
WB_MEM_USED = "mem_used"
WB_MEM_WASTE = "mem_waste"
WB_BUCKETS = (WB_CONTROL, WB_L2_USED, WB_L2_WASTE, WB_MEM_USED, WB_MEM_WASTE)

#: Overhead sub-types (paper Section 5.2.4).
OVH_UNBLOCK = "unblock"
OVH_WB_CTL = "wb_ctl"
OVH_INVAL = "inval"
OVH_ACK = "ack"
OVH_NACK = "nack"
OVH_BLOOM = "bloom"
OVH_BUCKETS = (OVH_UNBLOCK, OVH_WB_CTL, OVH_INVAL, OVH_ACK, OVH_NACK,
               OVH_BLOOM)

#: Destinations for data words.
DEST_L1 = "l1"
DEST_L2 = "l2"
DEST_MEM = "mem"

#: Data-carrying sub-buckets per major; every other bucket is control.
#: The energy model charges both at the same per-flit-hop cost (flits
#: are link-width either way) but reports the split, and the
#: conservation audit reconciles the two halves against the NoC total.
DATA_BUCKETS = {
    LD: (RESP_L1_USED, RESP_L1_WASTE, RESP_L2_USED, RESP_L2_WASTE),
    ST: (RESP_L1_USED, RESP_L1_WASTE, RESP_L2_USED, RESP_L2_WASTE),
    WB: (WB_L2_USED, WB_L2_WASTE, WB_MEM_USED, WB_MEM_WASTE),
    OVH: (),
}


def split_flit_hops(breakdown: Dict[str, Dict[str, float]]):
    """``(data, control)`` flit-hop totals of a finalized breakdown.

    ``breakdown`` is the ``{major: {bucket: flit_hops}}`` mapping from
    :meth:`TrafficLedger.breakdown` (or ``RunResult.traffic``).  The two
    halves sum exactly to the ledger's grand total.
    """
    data = control = 0.0
    for major, buckets in breakdown.items():
        data_keys = DATA_BUCKETS.get(major, ())
        for bucket, hops in buckets.items():
            if bucket in data_keys:
                data += hops
            else:
                control += hops
    return data, control


# Deferred data-word deliveries awaiting a used/waste verdict are stored
# as (handles, per_word_flit_hops, major, dest) tuples — one element per
# data *message*, referencing the payload's profiler handles, so the
# hot path allocates nothing per word.  finalize() still resolves and
# accumulates word by word, in arrival order, so the floating-point
# bucket totals are bit-identical to the old one-tuple-per-word scheme.


class TrafficLedger:
    """Accumulates flit-hops per (major, bucket) with deferred data verdicts.

    ``verdicts`` is the cache-level verdict pool
    (:attr:`repro.waste.profiler.WastePools.cache_cat`) that the data
    words' handles index.
    """

    def __init__(self, words_per_flit: int = 4,
                 verdicts: Optional[array] = None) -> None:
        self.words_per_flit = words_per_flit
        self._verdicts = verdicts if verdicts is not None else array("b")
        self._buckets: Dict[str, Dict[str, float]] = {
            LD: {b: 0.0 for b in LDST_BUCKETS},
            ST: {b: 0.0 for b in LDST_BUCKETS},
            WB: {b: 0.0 for b in WB_BUCKETS},
            OVH: {b: 0.0 for b in OVH_BUCKETS},
        }
        self._deferred: List[tuple] = []
        self._finalized = False

    # -- control traffic ------------------------------------------------
    def add_request_ctl(self, major: str, hops: int) -> None:
        """One request control flit crossing ``hops`` links."""
        if major is not LD and major is not ST:
            self._check(major, (LD, ST))
        self._buckets[major][REQ_CTL] += hops

    def add_response_ctl(self, major: str, flit_hops: float) -> None:
        """Response header flit-hops (plus unfilled data-flit remainders)."""
        if major is not LD and major is not ST:
            self._check(major, (LD, ST))
        self._buckets[major][RESP_CTL] += flit_hops

    def add_wb_control(self, flit_hops: float) -> None:
        self._buckets[WB][WB_CONTROL] += flit_hops

    def add_overhead(self, subtype: str, hops: int, flits: int = 1) -> None:
        if subtype not in OVH_BUCKETS:
            raise ValueError(f"unknown overhead subtype {subtype!r}")
        self._buckets[OVH][subtype] += hops * flits

    # -- data traffic ---------------------------------------------------
    def add_data_words(self, major: str, dest: str, hops: int,
                       handles: Sequence[int]) -> float:
        """Record a data payload of ``len(handles)`` words over ``hops``.

        Each word is charged ``hops / words_per_flit`` flit-hops against
        its profiler handle; the unfilled remainder of the last flit is
        charged to response control (per paper Section 5.2).  Returns the
        number of data flits in the payload (for latency computation).
        """
        if major is not LD and major is not ST:
            self._check(major, (LD, ST))
        if dest not in (DEST_L1, DEST_L2):
            raise ValueError(f"data destination must be l1/l2, got {dest!r}")
        n_words = len(handles)
        if n_words == 0:
            return 0
        words_per_flit = self.words_per_flit
        data_flits = -(-n_words // words_per_flit)
        per_word = hops / words_per_flit
        # One deferred record per message; the handle sequence is
        # freshly built by every caller and never mutated afterwards.
        self._deferred.append((handles, per_word, major, dest))
        slack_words = data_flits * words_per_flit - n_words
        if slack_words:
            self._buckets[major][RESP_CTL] += slack_words * per_word
        return data_flits

    def add_wb_data_words(self, dest: str, hops: int, dirty_flags:
                          List[bool]) -> float:
        """Writeback payload; dirty words are Used, clean words Waste."""
        if dest not in (DEST_L2, DEST_MEM):
            raise ValueError(f"writeback destination must be l2/mem")
        n_words = len(dirty_flags)
        if n_words == 0:
            return 0
        words_per_flit = self.words_per_flit
        data_flits = -(-n_words // words_per_flit)
        per_word = hops / words_per_flit
        used_key = WB_L2_USED if dest == DEST_L2 else WB_MEM_USED
        waste_key = WB_L2_WASTE if dest == DEST_L2 else WB_MEM_WASTE
        wb_bucket = self._buckets[WB]
        for dirty in dirty_flags:
            wb_bucket[used_key if dirty else waste_key] += per_word
        slack_words = data_flits * words_per_flit - n_words
        if slack_words:
            wb_bucket[WB_CONTROL] += slack_words * per_word
        return data_flits

    # -- resolution ------------------------------------------------------
    def finalize(self) -> None:
        """Resolve deferred data verdicts through the verdict pool."""
        verdicts = self._verdicts
        buckets = self._buckets
        for handles, flit_hops, major, dest in self._deferred:
            major_bucket = buckets[major]
            if dest == DEST_L1:
                used_key, waste_key = RESP_L1_USED, RESP_L1_WASTE
            else:
                used_key, waste_key = RESP_L2_USED, RESP_L2_WASTE
            # Word by word, in arrival order: the float bucket totals
            # depend on the accumulation order.
            for handle in handles:
                key = (used_key if verdicts[handle] == C_USED
                       else waste_key)
                major_bucket[key] += flit_hops
        self._deferred.clear()
        self._finalized = True

    # -- queries ---------------------------------------------------------
    def bucket(self, major: str, sub: str) -> float:
        self._require_finalized()
        return self._buckets[major][sub]

    def major_total(self, major: str) -> float:
        self._require_finalized()
        return sum(self._buckets[major].values())

    def total(self) -> float:
        self._require_finalized()
        return sum(self.major_total(m) for m in MAJORS)

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Deep copy of all buckets (finalized)."""
        self._require_finalized()
        return {m: dict(bs) for m, bs in self._buckets.items()}

    # -- helpers -----------------------------------------------------------
    def _check(self, major: str, allowed) -> None:
        if major not in allowed:
            raise ValueError(f"major {major!r} not in {allowed}")

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("TrafficLedger.finalize() has not been called")
