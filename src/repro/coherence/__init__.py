"""Coherence layer: shared kernel and the two protocol cores.

* :mod:`repro.coherence.kernel` — :class:`CoherenceKernel`, the shared
  hierarchy machinery every protocol needs (L1/L2 tag+state arrays,
  fill reservation/protection, retire hooks, profiler touchpoints, the
  ``stats()`` protocol);
* the protocol cores — :class:`MesiSystem` (line-granular directory
  MESI) and :class:`DenovoSystem` (word-granular DeNovo), each a state
  machine on the kernel.  ``ProtocolConfig.kind`` picks the core, and
  each core copies the rung's optimisation flags it reads into
  attributes when it is built and records which of them acted in the
  run (``CoherenceKernel.acted``).
"""

from repro.coherence.denovo import DenovoSystem
from repro.coherence.kernel import CoherenceKernel
from repro.coherence.mesi import MesiSystem

__all__ = ["CoherenceKernel", "DenovoSystem", "MesiSystem"]
