"""Word-level Boolean kernels: the packed core under the CDG engines.

This package owns every primitive that touches packed little-endian
uint64 bit-planes, so the CDG side's inner loops (consistency sweep,
fused binary-mask apply, popcount bookkeeping) run on one kernel core:

* :mod:`repro.kernels.bitops` — word-level primitives: popcounts,
  AND-accumulate with exact delta counting, segmented OR/popcount
  reductions, row/column clears.
* :mod:`repro.kernels.backend` — :class:`KernelBackend`, the three
  kernels the engines call (``support_any``, ``and_accumulate``,
  ``count_ones``), and :func:`create_backend`, which hands out the
  shared instance or passes a caller's substitute (a timing proxy)
  through.

Layering: ``kernels`` sits *below* :mod:`repro.network.bitset` — the
layout layer packs/unpacks and delegates its word-level work here —
which sits below propagation/template, which sits below the engines.
The CFG substrate (:mod:`repro.cfg`) does not use the kernels.
"""

from repro.kernels.backend import KernelBackend, create_backend
from repro.kernels.bitops import WORD_BITS, WORD_BYTES, WORD_DTYPE

__all__ = [
    "KernelBackend",
    "create_backend",
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_DTYPE",
]
