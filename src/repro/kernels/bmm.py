"""Boolean matrix multiplication over packed words.

``C = A ∘ B`` in the Boolean semiring: ``C[i, j] = OR_k A[i, k] AND
B[k, j]``.  Operands and result are bit-packed along their second
axis (little-endian uint64 words, see :mod:`repro.kernels.bitops`):

* ``a_bits`` — shape ``(m, a_words)``; bit *k* of row *i* is ``A[i, k]``.
  Bits at positions >= ``k_rows`` must be zero (the dense-pack padding
  invariant).
* ``b_bits`` — shape ``(k_rows, n_words)``; bit *j* of row *k* is
  ``B[k, j]``.
* result — shape ``(m, n_words)``, same column packing as ``b_bits``;
  its padding bits are zero because ``b_bits``'s are.

Two kernels with identical results:

* :func:`bmm_four_russians` — the blocked "Four Russians" method: B's
  rows are grouped 8 at a time, each group expanded into a 256-entry
  table of precomputed row ORs (built in 8 vectorized DP steps), and
  each byte of A gathers its table entry — 8 rows of work per byte
  lookup, word-wide ORs throughout.
* :func:`bmm_planes` — the Lee/Valiant recast taken literally: unpack
  both operands to boolean planes, multiply in the Boolean semiring
  (``@`` on bool arrays), repack.  Simple and allocation-heavy; tests
  and the BMM bench use it as a cross-check on the four-Russians
  kernel.

:func:`bmm_reference` is the O(m*k*n) broadcast oracle used by tests.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.bitops import WORD_BITS, WORD_DTYPE, bytes_view, pack_bits, unpack_bits


def _check_operands(a_bits: np.ndarray, b_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize a packed operand pair."""
    a = np.ascontiguousarray(np.asarray(a_bits, dtype=WORD_DTYPE))
    b = np.ascontiguousarray(np.asarray(b_bits, dtype=WORD_DTYPE))
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"bmm operands must be 2-D packed word arrays, got shapes "
            f"{a.shape} and {b.shape}"
        )
    if a.shape[1] * WORD_BITS < b.shape[0]:
        raise ValueError(
            f"bmm inner dimensions disagree: A packs {a.shape[1] * WORD_BITS} "
            f"bit columns but B has {b.shape[0]} rows"
        )
    return a, b


def bmm_four_russians(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Packed Boolean matrix product via 8-row blocked table lookup."""
    a, b = _check_operands(a_bits, b_bits)
    m, k_rows, n_words = a.shape[0], b.shape[0], b.shape[1]
    out = np.zeros((m, n_words), dtype=WORD_DTYPE)
    if m == 0 or k_rows == 0 or n_words == 0:
        return out
    a8 = bytes_view(a)  # (m, a_words * 8): byte t covers A columns 8t..8t+7
    subsets = np.arange(256)
    for t in range((k_rows + 7) // 8):
        column = a8[:, t]
        if not column.any():
            continue
        rows = b[8 * t : min(8 * t + 8, k_rows)]
        # table[s] = OR of the block rows selected by byte value s, built
        # bottom-up: entries containing bit r extend the entry without it.
        table = np.zeros((256, n_words), dtype=WORD_DTYPE)
        for r in range(rows.shape[0]):
            with_r = (subsets & (1 << r)) != 0
            table[with_r] = table[subsets[with_r] ^ (1 << r)] | rows[r]
        np.bitwise_or(out, table[column], out=out)
    return out


def bmm_planes(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Packed Boolean matrix product via unpacked bit-plane matmul."""
    a, b = _check_operands(a_bits, b_bits)
    k_rows, n_words = b.shape[0], b.shape[1]
    if a.shape[0] == 0 or k_rows == 0 or n_words == 0:
        return np.zeros((a.shape[0], n_words), dtype=WORD_DTYPE)
    a_plane = unpack_bits(a, a.shape[1] * WORD_BITS)[:, :k_rows]
    b_plane = unpack_bits(b, n_words * WORD_BITS)
    return pack_bits(a_plane @ b_plane)  # bool @ bool is the Boolean semiring


def bmm_reference(a_plane: np.ndarray, b_plane: np.ndarray) -> np.ndarray:
    """O(m*k*n) broadcast oracle on boolean planes (tests/bench only)."""
    a_plane = np.asarray(a_plane, dtype=bool)
    b_plane = np.asarray(b_plane, dtype=bool)
    return (a_plane[:, :, None] & b_plane[None, :, :]).any(axis=1)
