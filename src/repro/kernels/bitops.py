"""Word-level bit kernels over little-endian uint64 planes.

The leaf module of the kernel core: everything here operates on packed
word arrays and plain index/offset arrays — no ``BitLayout``, no
network, no grammar.  The layout layer (:mod:`repro.network.bitset`)
computes byte-aligned segment starts and per-index byte/mask tables and
delegates the actual bit arithmetic to these functions.

Conventions
-----------

* Words are explicit little-endian (``'<u8'``) so the ``uint8`` view of
  a word array is host-independent; bit *i* of a packed row lives in
  byte ``i >> 3`` at in-byte position ``i & 7``.
* 2-D inputs are independent rows: axis 0 indexes rows, axis 1 packed
  words.
* Callers guarantee that padding/slack bits are zero; that invariant is
  what makes popcount-delta counting exact, and every mutating kernel
  here preserves it (AND against zero stays zero, cleared rows are
  zero).
"""

from __future__ import annotations

import numpy as np

#: Words are explicit little-endian so uint8 views are host-independent.
WORD_DTYPE = np.dtype("<u8")
WORD_BYTES = 8
WORD_BITS = 64

if hasattr(np, "bitwise_count"):  # numpy >= 2: native popcount
    def popcount_bytes(view8: np.ndarray) -> np.ndarray:
        """Per-byte population counts of a uint8 array."""
        return np.bitwise_count(view8)
else:  # pragma: no cover - numpy < 2 fallback
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_bytes(view8: np.ndarray) -> np.ndarray:
        """Per-byte population counts of a uint8 array."""
        return _POP8[view8]


def bytes_view(words: np.ndarray) -> np.ndarray:
    """The uint8 view of a word array (rows must be C-contiguous)."""
    return np.ascontiguousarray(words).view(np.uint8)


# -- counting ----------------------------------------------------------------

def count_ones(words: np.ndarray) -> int:
    """Total population count of a packed array (any shape)."""
    return int(popcount_bytes(bytes_view(words)).sum())


def segment_counts(row_words: np.ndarray, seg_byte_starts: np.ndarray) -> np.ndarray:
    """Per-segment popcounts of one packed row.

    Byte-aligned segments make this a byte-popcount followed by one
    ``add.reduceat`` at the segment starts; slack bits are zero by
    construction so the counts are exact.
    """
    per_byte = popcount_bytes(bytes_view(row_words)).astype(np.int64)
    return np.add.reduceat(per_byte, seg_byte_starts)


# -- segmented OR (the consistency-maintenance row sweep) --------------------

def or_segments(matrix_words: np.ndarray, seg_byte_starts: np.ndarray) -> np.ndarray:
    """OR each packed row within each byte segment: (rows, n_segments) uint8.

    A nonzero entry ``[a, j]`` means row *a* keeps at least one set bit
    in segment *j* — the OR-along-rows half of the paper's
    scanOr/scanAnd sweep, one ``bitwise_or.reduceat`` over the byte view.
    """
    return np.bitwise_or.reduceat(bytes_view(matrix_words), seg_byte_starts, axis=-1)


# -- mutation kernels --------------------------------------------------------

def scatter_mask(
    byte_offsets: np.ndarray, byte_masks: np.ndarray, row_bytes: int
) -> np.ndarray:
    """A packed (row_bytes/8,) row built by OR-scattering per-index byte masks."""
    mask8 = np.zeros(row_bytes, dtype=np.uint8)
    np.bitwise_or.at(mask8, byte_offsets, byte_masks)
    return mask8.view(WORD_DTYPE)


def and_accumulate(target_words: np.ndarray, mask_words: np.ndarray) -> int:
    """AND *mask* into *target* in place; return the number of bits cleared.

    The delta is exact popcount arithmetic (padding is zero on both
    sides), replacing the boolean path's ``count_nonzero(M & ~mask)``
    materialization with two popcounts over 8x less memory.
    """
    before = count_ones(target_words)
    np.bitwise_and(target_words, mask_words, out=target_words)
    return before - count_ones(target_words)


def clear_rows_and_columns(
    alive_words: np.ndarray,
    matrix_words: np.ndarray,
    indices: np.ndarray,
    keep_words: np.ndarray,
) -> None:
    """Kill *indices*: clear their alive bits, matrix rows and columns.

    ``keep_words`` is the packed complement of the indices' member mask
    (the layout layer computes it, since bit positions are its concern).
    The numpy analogue of MasPar design decision 4 ("zero the rows or
    columns ... rather than reducing their dimensions"), as three
    word-wide operations: one broadcast column-clear AND, one
    fancy-index row clear, one alive-vector AND.
    """
    alive_words &= keep_words
    matrix_words &= keep_words  # broadcast over rows: clears the columns
    matrix_words[indices] = 0  # clears the rows
