"""The kernel backend: the packed Boolean kernels the CDG engines run on.

There is one kernel core, :class:`KernelBackend` (``name ==
"packed"``): word-wide numpy operations over packed little-endian
uint64 bit-planes, delegating to :mod:`repro.kernels.bitops`.  It
provides the word-level surface the CDG engines run on:

* ``support_any(matrix_words, alive_words, seg_byte_starts)`` — the
  consistency sweep's OR-reduction: does row *a* keep an alive partner
  in each segment?  Computed as a word-wide AND plus a segmented byte
  OR.
* ``and_accumulate`` / ``count_ones`` — the fused-mask apply and the
  popcount bookkeeping around it.

The class stays a class, rather than three functions, so a caller can
substitute a subclass: a timing proxy hands its instance to
``ParserSession(backend=...)`` and every network the session binds
runs its kernels through it.  :func:`create_backend` is the one
resolution point — None yields the shared instance, an instance passes
through, and anything else (a name included) is an error.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.kernels import bitops


class KernelBackend:
    """Word-at-a-time numpy kernels: word-wide ANDs, reduceat sweeps."""

    name = "packed"

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """(rows, n_segments) bool: does each row keep an alive bit per segment?"""
        masked = np.bitwise_and(matrix_words, alive_words[None, :], out=out)
        return bitops.or_segments(masked, seg_byte_starts) != 0

    def and_accumulate(self, target_words: np.ndarray, mask_words: np.ndarray) -> int:
        """AND *mask* into *target* in place; return bits cleared."""
        return bitops.and_accumulate(target_words, mask_words)

    def count_ones(self, words: np.ndarray) -> int:
        """Total population count of a packed array."""
        return bitops.count_ones(words)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"


_SHARED = KernelBackend()


def create_backend(backend: "KernelBackend | None" = None) -> KernelBackend:
    """The backend to run on: *backend* itself, or the shared instance.

    Raises:
        ReproError: for anything but None or a :class:`KernelBackend`
            instance.  A string, ``"packed"`` included, is rejected,
            not resolved.
    """
    if backend is None:
        return _SHARED
    if isinstance(backend, KernelBackend):
        return backend
    raise ReproError(
        f"kernel backends are no longer picked by name (got {backend!r}); "
        "pass None for the packed core or a KernelBackend instance"
    )
