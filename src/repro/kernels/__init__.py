"""Boolean-linear-algebra kernels: the word-level core under both parsers.

Lee 1997 ("Fast Context-Free Parsing Requires Fast BMM", via Valiant)
shows the asymptotic ceiling of this parser family *is* Boolean matrix
multiplication.  This package owns every primitive that touches packed
little-endian uint64 bit-planes, so the CDG side (consistency sweep,
fused binary-mask apply) and the CFG side (packed CYK) run on one
shared kernel core instead of three disconnected inner loops:

* :mod:`repro.kernels.bitops` — word-level primitives: popcounts,
  AND-accumulate with exact delta counting, segmented OR/popcount
  reductions, row/column clears, dense bit pack/unpack.
* :mod:`repro.kernels.bmm` — Boolean matrix multiplication over packed
  words: a blocked four-Russians kernel, plus the bit-plane product and
  the broadcast reference that tests and the bench check it against.
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
``repro.cfg`` reaches the kernels directly (no BitLayout involved).
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
from repro.kernels.bmm import bmm_four_russians, bmm_planes, bmm_reference

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
    "bmm_four_russians",
    "bmm_planes",
    "bmm_reference",
]
