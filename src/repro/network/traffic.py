"""The network send path: flit-hop traffic accounting with deferred
used/waste attribution.

Every network message goes through one ``TrafficLedger.send_*`` method
(``SimContext`` exposes them under the same names).  The method works
out the packet's flit count from its payload (``1 + ceil(words / 4)``),
routes it once through the ``route`` hook (``Mesh.traverse``: hop count
and delivery latency), charges its flit-hops here, and pushes the
delivery event onto the event queue's heap itself.  The charging rules
follow the paper's methodology (Section 5.2): a control packet is one
flit; a data payload is charged per word, with the unfilled tail-flit
slack credited to response (or writeback) control.  So the rules and
the packed data-record format below live in this one module, and a
message costs one Python frame for the send and one for the route.

The paper's Figures 5.1a-d break network traffic into:

* major categories: load (LD), store (ST), writeback (WB), overhead (OVH);
* within LD/ST: request control, response control, and response data split
  by destination (L1 or L2) and usefulness (Used or Waste);
* within WB: control, and data split by destination (L2 or Mem) and
  dirty (Used) vs. unmodified (Waste);
* overhead sub-types (unblock, invalidation, ack, NACK, WB-control, bloom).

Whether a delivered data word was Used or Waste is only known once the
waste profiler classifies it (possibly at end of simulation).  So each
data message is kept as one packed integer naming its consecutive
profiler handles, and :meth:`TrafficLedger.finalize` resolves them
through the destination level's verdict pool into exact integer
word-hop totals.

One ledger charges the whole run; :meth:`TrafficLedger.mark` opens the
measurement window at the end of warm-up, and ``finalize`` reports the
window alone (see there).
"""

from __future__ import annotations

from array import array
from heapq import heappush
from typing import Callable, Dict, Optional

from repro.common.addressing import WORDS_PER_FLIT
from repro.common.config import SystemConfig
from repro.engine.events import EventQueue
from repro.network.mesh import Mesh
from repro.waste.profiler import C_USED, WastePools

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


# A data message awaiting its words' verdicts is one int64 in
# ``TrafficLedger._deferred``: ``start << 16 | words << 8 | hops << 2 |
# code``, where ``start`` is its first profiler handle (its handles are
# consecutive) and ``code`` is ``(major is ST) << 1 | (dest is L2)``.
# The handle start takes the top bits, so a run too long for the record
# overflows the array loudly instead of wrapping.
_CODE_BITS = 2
_HOPS_BITS = 6
_WORDS_BITS = 8
_HOPS_SHIFT = _CODE_BITS
_WORDS_SHIFT = _HOPS_SHIFT + _HOPS_BITS
_START_SHIFT = _WORDS_SHIFT + _WORDS_BITS
_MAX_HOPS = (1 << _HOPS_BITS) - 1
_MAX_WORDS = (1 << _WORDS_BITS) - 1
#: The data buckets totalled in integer word-hops: entry ``2 * code``
#: is a record code's Used words and ``2 * code + 1`` its Waste words;
#: the writeback buckets follow from ``_WB_AT``.
_WORD_HOP_KEYS = (
    (LD, RESP_L1_USED), (LD, RESP_L1_WASTE),
    (LD, RESP_L2_USED), (LD, RESP_L2_WASTE),
    (ST, RESP_L1_USED), (ST, RESP_L1_WASTE),
    (ST, RESP_L2_USED), (ST, RESP_L2_WASTE),
    (WB, WB_L2_USED), (WB, WB_L2_WASTE),
    (WB, WB_MEM_USED), (WB, WB_MEM_WASTE),
)
_WB_AT = 8


def pack_data_record(start: int, n_words: int, hops: int, code: int) -> int:
    """The deferred-ledger word of one data message."""
    return ((start << _START_SHIFT) | (n_words << _WORDS_SHIFT)
            | (hops << _HOPS_SHIFT) | code)


def unpack_data_record(record: int):
    """``(start, n_words, hops, code)`` of a deferred-ledger word."""
    return (record >> _START_SHIFT,
            (record >> _WORDS_SHIFT) & _MAX_WORDS,
            (record >> _HOPS_SHIFT) & _MAX_HOPS,
            record & 3)


def _check_major(major: str) -> None:
    if major not in (LD, ST):
        raise ValueError(f"major {major!r} not in {(LD, ST)}")


def _in_the_past(arrive: int, now: int) -> None:
    raise ValueError(f"cannot schedule event in the past "
                     f"({arrive} < {now})")


def _zero_buckets() -> Dict[str, Dict[str, float]]:
    return {
        LD: {b: 0.0 for b in LDST_BUCKETS},
        ST: {b: 0.0 for b in LDST_BUCKETS},
        WB: {b: 0.0 for b in WB_BUCKETS},
        OVH: {b: 0.0 for b in OVH_BUCKETS},
    }


class TrafficLedger:
    """Sends packets and accumulates their flit-hops per (major, bucket),
    with deferred data verdicts.

    The five routed ``send_*`` methods, plus ``send_wb_ack`` for the one
    packet that is charged but never delivered, are the simulator's
    whole send path.  A ledger routes on ``mesh`` and queues each
    delivery on ``queue``; one
    built without them (unit tests) routes on a default 16-tile mesh into
    a queue of its own.  A data record's handles index the verdict pool
    of its destination level, ``pools.l1_cat`` or ``pools.l2_cat``
    (:class:`repro.waste.profiler.WastePools`).
    """

    def __init__(self, pools: Optional[WastePools] = None,
                 mesh: Optional[Mesh] = None,
                 queue: Optional[EventQueue] = None) -> None:
        pools = pools if pools is not None else WastePools()
        mesh = mesh if mesh is not None else Mesh(SystemConfig())
        queue = queue if queue is not None else EventQueue()
        #: The route hook, ``route(src, dst, flits, at) -> (hops,
        #: delay)``: every routed packet calls it exactly once, so an
        #: observer that rebinds it (``repro.obs.session``) sees every
        #: flit-hop but those of unrouted packets.
        self.route = mesh.traverse
        #: The unrouted-packet count, ``count_packet(src, dst) -> hops``:
        #: the hook for packets that are charged but never delivered.
        self.count_packet = mesh.count_packet
        self._queue = queue
        self._heap = queue._heap
        # Indexed by a record code's destination bit (1 is the L2).
        self._verdicts = (pools.l1_cat, pools.l2_cat)
        self._buckets = _zero_buckets()
        self._deferred = array("q")
        self._word_hops = [0] * len(_WORD_HOP_KEYS)
        # The window's mark: the first window record and the control
        # buckets and writeback word-hops charged before it.
        self._first_record = 0
        self._marked_buckets = _zero_buckets()
        self._marked_word_hops = [0] * len(_WORD_HOP_KEYS)
        self._finalized = False

    def mark(self) -> None:
        """Open the measurement window: charges from here on count."""
        self._first_record = len(self._deferred)
        self._marked_buckets = {major: dict(buckets)
                                for major, buckets in self._buckets.items()}
        self._marked_word_hops = self._word_hops[:]

    # -- the send path ----------------------------------------------------
    # Each send routes its packet once, charges it, and pushes the
    # delivery ``handler(*args, arrive)`` onto the queue's heap with the
    # queue's own sequence counter (the second writer named by
    # ``repro.engine.events``' determinism contract); it returns
    # ``arrive``.  The push is written out in each method rather than
    # shared, so a message costs one Python frame here and one in the
    # route.

    def send_req_ctl(self, major: str, src: int, dst: int, at: int,
                     handler: Callable, *args) -> int:
        """One request control flit (GETS/GETX/registration/memory
        request)."""
        hops, delay = self.route(src, dst, 1, at)
        if major is not LD and major is not ST:
            _check_major(major)
        self._buckets[major][REQ_CTL] += hops
        arrive = at + delay
        queue = self._queue
        if arrive < queue.now:
            _in_the_past(arrive, queue.now)
        seq = queue._seq
        queue._seq = seq + 1
        heappush(self._heap, (arrive, seq, handler, args + (arrive,)))
        return arrive

    def send_resp_ctl(self, major: str, src: int, dst: int, at: int,
                      handler: Callable, *args) -> int:
        """One response control flit (ack/grant)."""
        hops, delay = self.route(src, dst, 1, at)
        if major is not LD and major is not ST:
            _check_major(major)
        self._buckets[major][RESP_CTL] += hops
        arrive = at + delay
        queue = self._queue
        if arrive < queue.now:
            _in_the_past(arrive, queue.now)
        seq = queue._seq
        queue._seq = seq + 1
        heappush(self._heap, (arrive, seq, handler, args + (arrive,)))
        return arrive

    def send_data(self, major: str, dest: str, src: int, dst: int,
                  at: int, handles: range, handler: Callable, *args) -> int:
        """A header flit plus a payload of ``len(handles)`` data words.

        ``handles`` is the ``range`` of the words' consecutive profiler
        handles at the destination level.  The header flit is response
        control.  Each word is charged ``hops / WORDS_PER_FLIT``
        flit-hops against its handle, Used or Waste by the handle's
        verdict at finalize; the unfilled remainder of the last flit is
        response control too (paper Section 5.2).  Handles that end past
        the destination level's verdict pool (a stale range, or the
        other level's handles) raise ``ValueError``.
        """
        if major is not LD and major is not ST:
            _check_major(major)
        if dest == DEST_L1:
            to_l2 = 0
        elif dest == DEST_L2:
            to_l2 = 1
        else:
            raise ValueError(f"data destination must be l1/l2, got {dest!r}")
        if type(handles) is not range or handles.step != 1:
            raise TypeError("data handles must be a range of consecutive "
                            f"handles, got {handles!r}")
        n_words = len(handles)
        if n_words and handles.stop > len(self._verdicts[to_l2]):
            raise ValueError(f"data handles {handles!r} end past the "
                             f"{dest} pool")
        data_flits = -(-n_words // WORDS_PER_FLIT)
        hops, delay = self.route(src, dst, 1 + data_flits, at)
        buckets = self._buckets[major]
        if n_words:
            if n_words > _MAX_WORDS or hops > _MAX_HOPS:
                raise ValueError(f"{n_words} words over {hops} hops does "
                                 f"not fit a deferred data record")
            # pack_data_record, written out.
            self._deferred.append(
                (handles.start << _START_SHIFT) | (n_words << _WORDS_SHIFT)
                | (hops << _HOPS_SHIFT) | (2 if major is ST else 0) | to_l2)
            slack_words = data_flits * WORDS_PER_FLIT - n_words
            if slack_words:
                buckets[RESP_CTL] += hops + slack_words * (
                    hops / WORDS_PER_FLIT)
            else:
                buckets[RESP_CTL] += hops
        else:
            buckets[RESP_CTL] += hops
        arrive = at + delay
        queue = self._queue
        if arrive < queue.now:
            _in_the_past(arrive, queue.now)
        seq = queue._seq
        queue._seq = seq + 1
        heappush(self._heap, (arrive, seq, handler, args + (arrive,)))
        return arrive

    def send_wb(self, src: int, dst: int, at: int, n_words: int,
                n_dirty: int, dest: str, handler: Callable, *args) -> int:
        """A writeback: a control flit plus ``n_words`` data words.

        The ``n_dirty`` dirty words are Used, the clean ones Waste; the
        header flit and the last flit's unfilled remainder are writeback
        control.
        """
        if dest == DEST_L2:
            word_at = _WB_AT
        elif dest == DEST_MEM:
            word_at = _WB_AT + 2
        else:
            raise ValueError(f"writeback destination must be l2/mem, "
                             f"got {dest!r}")
        data_flits = -(-n_words // WORDS_PER_FLIT)
        hops, delay = self.route(src, dst, 1 + data_flits, at)
        buckets = self._buckets[WB]
        if n_words:
            word_hops = self._word_hops
            word_hops[word_at] += n_dirty * hops
            word_hops[word_at + 1] += (n_words - n_dirty) * hops
            slack_words = data_flits * WORDS_PER_FLIT - n_words
            if slack_words:
                buckets[WB_CONTROL] += hops + slack_words * (
                    hops / WORDS_PER_FLIT)
            else:
                buckets[WB_CONTROL] += hops
        else:
            buckets[WB_CONTROL] += hops
        arrive = at + delay
        queue = self._queue
        if arrive < queue.now:
            _in_the_past(arrive, queue.now)
        seq = queue._seq
        queue._seq = seq + 1
        heappush(self._heap, (arrive, seq, handler, args + (arrive,)))
        return arrive

    def send_overhead(self, subtype: str, src: int, dst: int, at: int,
                      handler: Optional[Callable] = None, *args,
                      flits: int = 1) -> int:
        """A coherence-overhead packet of ``flits`` flits
        (inv/ack/unblock/NACK/bloom); no delivery when ``handler`` is
        None."""
        hops, delay = self.route(src, dst, flits, at)
        buckets = self._buckets[OVH]
        if subtype not in buckets:
            raise ValueError(f"unknown overhead subtype {subtype!r}")
        buckets[subtype] += hops * flits
        arrive = at + delay
        if handler is not None:
            queue = self._queue
            if arrive < queue.now:
                _in_the_past(arrive, queue.now)
            seq = queue._seq
            queue._seq = seq + 1
            heappush(self._heap, (arrive, seq, handler, args + (arrive,)))
        return arrive

    def send_wb_ack(self, src: int, dst: int) -> None:
        """MESI's clean-writeback ack: one writeback-control flit that is
        counted on the mesh but never routed or delivered."""
        self._buckets[WB][WB_CONTROL] += self.count_packet(src, dst)

    # -- resolution ------------------------------------------------------
    def finalize(self) -> None:
        """Resolve the window's data verdicts through the verdict pools.

        The window is everything from :meth:`mark` on: the data records
        from the first window record, and the control buckets and
        writeback word-hops minus their values at the mark.
        Data traffic is totalled in integer word-hops and divided by
        ``WORDS_PER_FLIT`` once per bucket.  A flit is a fixed 4 words
        (16-byte links, ``common.addressing.LINK_BYTES``), a power of
        two, so every per-word charge is a multiple of 1/4, which a
        double holds exactly: each difference is exact, and these
        totals equal a word-by-word float sum in any order.
        """
        verdicts = self._verdicts
        word_hops = [total - marked for total, marked
                     in zip(self._word_hops, self._marked_word_hops)]
        for record in memoryview(self._deferred)[self._first_record:]:
            start, n_words, hops, code = unpack_data_record(record)
            used = verdicts[code & 1].count(C_USED, start, start + n_words)
            word_hops[2 * code] += used * hops
            word_hops[2 * code + 1] += (n_words - used) * hops
        buckets = self._buckets
        for major, marked in self._marked_buckets.items():
            totals = buckets[major]
            for key, charged in marked.items():
                totals[key] -= charged
        for (major, key), total in zip(_WORD_HOP_KEYS, word_hops):
            buckets[major][key] += total / WORDS_PER_FLIT
        self._deferred = array("q")
        self._word_hops = [0] * len(_WORD_HOP_KEYS)
        self._first_record = 0
        self._marked_buckets = _zero_buckets()
        self._marked_word_hops = [0] * len(_WORD_HOP_KEYS)
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
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("TrafficLedger.finalize() has not been called")
