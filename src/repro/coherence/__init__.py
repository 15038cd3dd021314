"""Coherence layer: shared kernel, per-flag policies, protocol cores.

The layer is split in three:

* :mod:`repro.coherence.kernel` — :class:`CoherenceKernel`, the shared
  hierarchy machinery every protocol needs (L1/L2 tag+state arrays,
  fill reservation/protection, retire hooks, profiler touchpoints, the
  ``stats()`` protocol);
* :mod:`repro.coherence.policies` — small strategy objects resolved
  from a :class:`~repro.common.config.ProtocolConfig`'s feature flags
  (granularity, writeback filtering, Flex transfer, L2 bypass,
  mem-to-L1 routing);
* the protocol cores — :class:`MesiSystem` (line-granular directory
  MESI) and :class:`DenovoSystem` (word-granular DeNovo), each a
  state machine composing the kernel and its policies.

``PROTOCOL_CORES`` maps a ``ProtocolConfig.kind`` to its core class;
:func:`build_protocol_system` is the factory ``core.system.System``
uses.  A new protocol *rung* normally needs no new core — register a
new ``ProtocolConfig`` (see ``repro.common.registry``) whose flags
resolve to the right policies.
"""

from repro.coherence.denovo import DenovoSystem
from repro.coherence.kernel import CoherenceKernel
from repro.coherence.mesi import MesiSystem
from repro.coherence.policies import (
    BypassPolicy,
    GranularityPolicy,
    MemTransferPolicy,
    PolicySet,
    TransferPolicy,
    WritebackPolicy,
    resolve_policies,
)

#: ProtocolConfig.kind -> protocol-core class.
PROTOCOL_CORES = {
    "mesi": MesiSystem,
    "denovo": DenovoSystem,
}


def build_protocol_system(ctx) -> CoherenceKernel:
    """Instantiate the protocol core for ``ctx.proto.kind``."""
    kind = ctx.proto.kind
    try:
        core_cls = PROTOCOL_CORES[kind]
    except KeyError:
        known = ", ".join(PROTOCOL_CORES)
        raise KeyError(f"no protocol core registered for kind {kind!r}; "
                       f"known: {known}") from None
    return core_cls(ctx)


__all__ = [
    "BypassPolicy", "CoherenceKernel", "DenovoSystem", "GranularityPolicy",
    "MemTransferPolicy", "MesiSystem", "PROTOCOL_CORES", "PolicySet",
    "TransferPolicy", "WritebackPolicy", "build_protocol_system",
    "resolve_policies",
]
