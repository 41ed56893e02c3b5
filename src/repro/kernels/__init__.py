"""Word-level Boolean kernels: the packed core under the CDG engines.

This package owns every primitive that touches packed little-endian
uint64 bit-planes, so the CDG side's inner loops (consistency sweep,
fused binary-mask apply, popcount bookkeeping) run on one kernel core
with two interchangeable implementations:

* :mod:`repro.kernels.bitops` — word-level primitives: popcounts,
  AND-accumulate with exact delta counting, segmented OR/popcount
  reductions, row/column clears.
* :mod:`repro.kernels.backend` — the kernel-backend table: ``packed``
  (default) and ``native`` (compiled C via ctypes), which falls back
  cleanly to ``packed`` on a host without a C compiler.  Selected via
  the ``REPRO_KERNEL_BACKEND`` environment variable or the ``backend=``
  argument of :class:`repro.pipeline.session.ParserSession`; one
  resolution rule (explicit > environment > default) lives in
  :func:`repro.kernels.backend.resolve_backend_name`.
* :mod:`repro.kernels.native` — the C source + on-demand ``cc`` build
  behind the ``native`` backend.

Layering: ``kernels`` sits *below* :mod:`repro.network.bitset` — the
layout layer packs/unpacks and delegates its word-level work here —
which sits below propagation/template, which sits below the engines.
The CFG substrate (:mod:`repro.cfg`) does not use the kernels.
"""

from repro.kernels.backend import (
    KernelBackend,
    KernelBackendUnavailable,
    available_backends,
    create_backend,
    default_backend,
    reset_backend_cache,
    resolve_backend_name,
)
from repro.kernels.bitops import WORD_BITS, WORD_BYTES, WORD_DTYPE

__all__ = [
    "KernelBackend",
    "KernelBackendUnavailable",
    "available_backends",
    "create_backend",
    "default_backend",
    "reset_backend_cache",
    "resolve_backend_name",
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_DTYPE",
]
