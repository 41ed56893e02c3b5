"""The ``native`` kernel backend: compiled C behind the registry contract.

Thin ctypes wrappers over the library :mod:`repro.kernels.native.build`
compiles on demand.  Every wrapper validates dtype and contiguity
*before* handing a buffer across the foreign-function boundary — a
misdeclared stride that numpy would re-interpret is memory corruption
in C — and the RPR017 lint rule (*native-boundary hygiene*) enforces
that discipline structurally: a ``.ctypes`` access on an array that did
not flow through one of the validators below is a finding.

Read-only operands go through :func:`_as_words` (contiguous ``'<u8'``,
copying when needed); the one in-place target (``and_accumulate``'s)
goes through :func:`_require_words`, which refuses rather than copies —
a silent copy would break the in-place contract the callers rely on.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.errors import ReproError
from repro.kernels import bitops
from repro.kernels.backend import KernelBackend
from repro.kernels.bitops import WORD_DTYPE
from repro.kernels.native.build import load_library

_U64 = ctypes.POINTER(ctypes.c_uint64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.POINTER(ctypes.c_int64)


def _as_words(array) -> np.ndarray:
    """A C-contiguous ``'<u8'`` view/copy of *array* (read-only use)."""
    return np.ascontiguousarray(np.asarray(array), dtype=WORD_DTYPE)


def _require_words(array) -> np.ndarray:
    """Validate an *in-place* target: contiguous, writable, ``'<u8'``.

    Raises instead of copying — a copy would silently drop the caller's
    mutation.
    """
    if not isinstance(array, np.ndarray) or array.dtype != WORD_DTYPE:
        raise ReproError(
            "native in-place kernels need a numpy '<u8' packed word array, "
            f"got {type(array).__name__}"
        )
    if not array.flags["C_CONTIGUOUS"] or not array.flags["WRITEABLE"]:
        raise ReproError(
            "native in-place kernels need a C-contiguous, writable target "
            "(pack with repro.kernels.bitops first)"
        )
    return array


class NativeBackend(KernelBackend):
    """Compiled word-level kernels loaded through ctypes.

    Bit-identical to ``packed`` by contract (the kernel identity suite
    sweeps all three primitives plus full-session parses); construction
    raises :class:`~repro.kernels.backend.KernelBackendUnavailable`
    when the host cannot compile or load the library, which the
    registry turns into the fall-back-to-``packed`` path.
    """

    name = "native"

    def __init__(self):
        self._lib = load_library()

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        # `out` is the other backends' masked-product scratch; the C
        # kernel masks on the fly and needs none.
        matrix = _as_words(matrix_words)
        alive = _as_words(alive_words)
        segs = np.ascontiguousarray(np.asarray(seg_byte_starts, dtype=np.int64))
        if matrix.ndim != 2:
            raise ReproError(f"support_any needs a 2-D matrix, got shape {matrix.shape}")
        rows, n_words = matrix.shape
        if alive.shape != (n_words,):
            raise ReproError(
                f"alive vector shape {alive.shape} does not match {n_words} matrix words"
            )
        n_segs = len(segs)
        result = np.empty((rows, n_segs), dtype=np.uint8)
        if rows and n_segs:
            self._lib.repro_support_any(
                matrix.ctypes.data_as(_U64), rows, n_words,
                alive.ctypes.data_as(_U64),
                segs.ctypes.data_as(_I64), n_segs,
                result.ctypes.data_as(_U8),
            )
        return result.view(bool)

    def and_accumulate(self, target_words: np.ndarray, mask_words: np.ndarray) -> int:
        target = _require_words(target_words)
        mask = np.asarray(mask_words, dtype=WORD_DTYPE)
        if mask.shape != target.shape:
            mask = np.broadcast_to(mask, target.shape)
        mask = np.ascontiguousarray(mask)
        return int(
            self._lib.repro_and_accumulate(
                target.ctypes.data_as(_U64), mask.ctypes.data_as(_U64), target.size
            )
        )

    def count_ones(self, words: np.ndarray) -> int:
        arr = np.ascontiguousarray(words)
        if arr.dtype != WORD_DTYPE or arr.size == 0:
            # Non-word inputs (uint8 scratch, empty arrays) take the
            # generic byte-popcount path; only packed words cross into C.
            return bitops.count_ones(arr)
        return int(self._lib.repro_count_ones(arr.ctypes.data_as(_U64), arr.size))
