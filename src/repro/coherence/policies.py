"""Per-flag coherence policies composed by the protocol cores.

Each policy object captures one axis of the paper's protocol ladder, so
a :class:`~repro.common.config.ProtocolConfig` resolves into a
:class:`PolicySet` and the protocol cores (``MesiSystem``,
``DenovoSystem``) consult policies instead of raw feature flags:

* :class:`GranularityPolicy` — the L2's write-miss fill granularity
  (line-grained fetch-on-write vs word-grained write-validate);
* :class:`WritebackPolicy` — which words a writeback payload carries
  (whole line with dirty flags, or the dirty words only);
* :class:`TransferPolicy` — which words a data response gathers: the
  full line, or the communication region's fields (Flex, at caches
  and/or at the memory controller);
* :class:`BypassPolicy` — whether annotated regions' memory responses
  and requests skip the L2 (Bloom-guarded on the request side);
* :class:`MemTransferPolicy` — whether memory responses go straight to
  the requesting L1 or route through the L2 first.

The policies are deliberately tiny and stateless (beyond configuration)
so a new ladder rung is a new flag combination — and occasionally a new
policy class — rather than surgery on a protocol state machine.
"""

from __future__ import annotations

from typing import List

from repro.common.addressing import line_of, words_of_line


class GranularityPolicy:
    """Fill granularity at the L2 on a write miss.

    Line- vs word-granular *coherence* is structural (it selects the
    protocol core class); what remains policy-shaped is whether an L2
    write miss fetches the whole line from memory (baseline
    fetch-on-write) or lets the written words validate the line without
    a fetch (L2 Write-Validate, the DValidateL2 rung).
    """

    __slots__ = ("l2_fetch_on_write",)

    def __init__(self, l2_fetch_on_write: bool) -> None:
        self.l2_fetch_on_write = l2_fetch_on_write


class WritebackPolicy:
    """Which words a writeback message carries.

    ``*_flags`` return the per-word payload flags handed to
    ``SimContext.send_wb``: one entry per word on the wire, True for a
    dirty (Used) word, False for an unmodified (Waste) word.  The
    full-line variants ship the whole line; the dirty-only variants
    ship just the dirty words, shrinking the payload.
    """

    __slots__ = ("l1_dirty_only", "l2_dirty_only")

    def __init__(self, l1_dirty_only: bool, l2_dirty_only: bool) -> None:
        self.l1_dirty_only = l1_dirty_only
        self.l2_dirty_only = l2_dirty_only

    def l1_flags(self, word_dirty: List[bool]) -> List[bool]:
        """Payload flags for an L1 writeback of a line with ``word_dirty``."""
        if self.l1_dirty_only:
            return [True] * sum(1 for d in word_dirty if d)
        return list(word_dirty)

    def l2_flags(self, word_dirty: List[bool]) -> List[bool]:
        """Payload flags for an L2->memory writeback."""
        if self.l2_dirty_only:
            return [True] * sum(1 for d in word_dirty if d)
        return list(word_dirty)


class TransferPolicy:
    """Which words a data response gathers (Flex, paper Section 3.1).

    Without Flex every response is line-granular.  With ``flex_l1`` a
    cache-sourced response carries the communication region's fields
    around the requested word instead; ``flex_l2`` extends the same
    gather to memory responses.
    """

    __slots__ = ("regions", "max_words", "flex_l1", "flex_l2")

    def __init__(self, regions, max_words: int, flex_l1: bool,
                 flex_l2: bool) -> None:
        self.regions = regions
        self.max_words = max_words
        self.flex_l1 = flex_l1
        self.flex_l2 = flex_l2

    def cache_region(self, addr: int):
        """The Flex region steering a cache-sourced response, or None
        (the response then gathers ``addr``'s own line)."""
        return self.regions.flex_region_for(addr) if self.flex_l1 else None

    def cache_candidates(self, addr: int) -> List[int]:
        """Candidate words for a cache-sourced response around ``addr``."""
        region = self.cache_region(addr)
        if region is None:
            return list(words_of_line(line_of(addr)))
        return self.region_words(region, addr)

    def memory_region(self, addr: int):
        """The Flex region steering a memory response, or None."""
        return self.regions.flex_region_for(addr) if self.flex_l2 else None

    def region_words(self, region, addr: int) -> List[int]:
        """The region's field words around ``addr`` (requested word first)."""
        words = region.flex_words(addr, self.max_words)
        if addr not in words:
            words = [addr] + words[:self.max_words - 1]
        return words


class BypassPolicy:
    """L2 response/request bypass for annotated regions."""

    __slots__ = ("response_enabled", "request_enabled")

    def __init__(self, response_enabled: bool,
                 request_enabled: bool) -> None:
        self.response_enabled = response_enabled
        self.request_enabled = request_enabled

    def bypasses(self, region) -> bool:
        """True when ``region``'s memory responses skip the L2."""
        return (self.response_enabled and region is not None
                and region.bypass_l2)


class MemTransferPolicy:
    """Routing of memory responses: via the L2, or straight to the L1."""

    __slots__ = ("direct_to_l1",)

    def __init__(self, direct_to_l1: bool) -> None:
        self.direct_to_l1 = direct_to_l1


class PolicySet:
    """The policy objects one protocol core composes."""

    __slots__ = ("granularity", "writeback", "transfer", "bypass",
                 "mem_transfer")

    def __init__(self, granularity: GranularityPolicy,
                 writeback: WritebackPolicy, transfer: TransferPolicy,
                 bypass: BypassPolicy,
                 mem_transfer: MemTransferPolicy) -> None:
        self.granularity = granularity
        self.writeback = writeback
        self.transfer = transfer
        self.bypass = bypass
        self.mem_transfer = mem_transfer


def resolve_policies(proto, regions, config) -> PolicySet:
    """Resolve a :class:`ProtocolConfig`'s flags into policy objects.

    ``regions`` is the (per-run) region table the Flex and bypass
    policies consult; ``config`` supplies message geometry.
    """
    denovo = proto.kind == "denovo"
    return PolicySet(
        granularity=GranularityPolicy(
            l2_fetch_on_write=denovo and not proto.l2_write_validate),
        writeback=WritebackPolicy(
            # DeNovo L1 writebacks are structurally dirty-words-only;
            # the flag below is the MESI-side rung (MDirtyWB).
            l1_dirty_only=proto.dirty_wb_only,
            l2_dirty_only=proto.l2_dirty_wb_only or proto.dirty_wb_only),
        transfer=TransferPolicy(
            regions=regions, max_words=config.max_words_per_message,
            flex_l1=proto.flex_l1, flex_l2=proto.flex_l2),
        bypass=BypassPolicy(
            response_enabled=proto.bypass_l2_response,
            request_enabled=proto.bypass_l2_request),
        mem_transfer=MemTransferPolicy(direct_to_l1=proto.mem_to_l1),
    )
