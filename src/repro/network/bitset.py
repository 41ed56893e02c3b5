"""Packed-bitset layout: the pack/unpack layer of the execution core.

The MP-1 moves *bits*: 4-bit PEs, ``scanAnd``/``scanOr`` over single-bit
flags, arc matrices that are pure boolean state.  Storing every matrix
entry as a numpy byte makes the O(n^4) arc matrices 8x larger than the
information they carry; this module packs them 8-per-byte and gives the
layers above word-wide bitwise kernels.

This module owns the *layout* concerns — how a template's role-value
index space maps onto packed rows (:class:`BitLayout`), packing and
unpacking against that map, and scattering between index spaces.  The
word-level bit arithmetic itself (popcounts, AND-accumulate, segmented
reductions, row/column clears) lives in :mod:`repro.kernels.bitops`;
the layout-parameterized helpers here delegate to it, translating
``BitLayout`` fields into the plain offset arrays the kernels take.

Layout
------

A :class:`BitLayout` maps the global role-value index space ``0..NV-1``
onto a packed row of ``row_bytes`` bytes:

* each role's contiguous domain slice starts at a fresh **byte**
  boundary (``ceil(size/8)`` bytes per role), so the segmented
  OR/popcount reductions that consistency maintenance needs are plain
  ``reduceat`` calls at byte-granular segment starts — no cross-role
  masking.  Byte (not 64-bit) alignment matters: real role domains are
  4-30 values wide, and word-aligned segments would waste most of each
  word, forfeiting the memory win;
* the row is padded to a multiple of 8 bytes and stored as explicit
  little-endian ``uint64`` words (``'<u8'``), so elementwise AND/OR and
  popcounts run 64 entries per operation while ``reduceat`` runs on the
  ``uint8`` view of the same memory.  The explicit byte order keeps the
  bit<->word mapping identical on any host.

Padding and inter-role slack bits are zero in every packed array
produced here, which is what makes popcount-based delta counting exact:
``count_ones(before) - count_ones(after)`` counts real matrix entries,
never garbage bits.

All kernels are allocation-light and operate on C-contiguous arrays;
2-D inputs are treated as independent rows (axis 0 = global index,
axis 1 = packed words).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import bitops

#: Re-exported from repro.kernels.bitops (the canonical home since 1.8).
WORD_DTYPE = bitops.WORD_DTYPE
WORD_BYTES = bitops.WORD_BYTES
WORD_BITS = bitops.WORD_BITS

#: Layout-internal alias; external word-level callers should use
#: repro.kernels.bitops directly.
_bytes_view = bitops.bytes_view


class BitLayout:
    """The byte-aligned packing of one template's role-value index space.

    Attributes:
        nv: number of role values (bits carried per packed row).
        row_bytes: packed row width in bytes (multiple of 8).
        n_words: ``row_bytes // 8`` — packed row width in uint64 words.
        pbit: (NV,) packed bit position of each global index.
        pbyte / pmask8: (NV,) byte offset and in-byte mask of each index.
        seg_byte_starts: byte offsets of the non-empty role segments, in
            role order — the ``reduceat`` split points.
        full_words: frozen (n_words,) row with every *valid* bit set
            (padding and slack clear) — the packed all-alive vector.
    """

    __slots__ = (
        "nv", "row_bytes", "n_words", "pbit", "pbyte", "pmask8",
        "seg_byte_starts", "full_words",
    )

    def __init__(self, role_slices: tuple[slice, ...]):
        nv = role_slices[-1].stop if role_slices else 0
        pbit = np.empty(nv, dtype=np.intp)
        seg_starts: list[int] = []
        cursor = 0  # byte cursor: every role starts at a fresh byte
        for sl in role_slices:
            size = sl.stop - sl.start
            if size:
                seg_starts.append(cursor)
                pbit[sl] = cursor * 8 + np.arange(size)
                cursor += (size + 7) // 8
        self.nv = nv
        self.row_bytes = max(WORD_BYTES, -(-cursor // WORD_BYTES) * WORD_BYTES)
        self.n_words = self.row_bytes // WORD_BYTES
        self.pbit = pbit
        self.pbyte = pbit >> 3
        self.pmask8 = (np.uint8(1) << (pbit & 7).astype(np.uint8)).astype(np.uint8)
        self.seg_byte_starts = np.asarray(seg_starts, dtype=np.intp)
        full = pack_rows(np.ones(nv, dtype=bool), self)
        full.setflags(write=False)
        self.full_words = full

    def nbytes(self) -> int:
        """Resident size of the layout tables, for cache accounting."""
        return (
            self.pbit.nbytes + self.pbyte.nbytes + self.pmask8.nbytes
            + self.seg_byte_starts.nbytes + self.full_words.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitLayout(nv={self.nv}, row_bytes={self.row_bytes}, "
            f"segments={len(self.seg_byte_starts)})"
        )


# -- pack / unpack -----------------------------------------------------------

def pack_rows(
    bools: np.ndarray, layout: BitLayout, *, columns: np.ndarray | None = None
) -> np.ndarray:
    """Pack (..., NV) booleans into (..., n_words) little-endian words.

    With *columns* (global indices), *bools* is ``(..., len(columns))``
    and carries those indices' bits only; every other bit packs to zero.
    """
    bools = np.asarray(bools, dtype=bool)
    padded = np.zeros(bools.shape[:-1] + (layout.row_bytes * 8,), dtype=bool)
    padded[..., layout.pbit if columns is None else layout.pbit[columns]] = bools
    packed = np.packbits(padded, axis=-1, bitorder="little")
    return packed.view(WORD_DTYPE)


def unpack_rows(words: np.ndarray, layout: BitLayout) -> np.ndarray:
    """Unpack (..., n_words) words back into (..., NV) booleans."""
    bits = np.unpackbits(_bytes_view(words), axis=-1, bitorder="little")
    return bits[..., layout.pbit].astype(bool)


def get_bit(row_words: np.ndarray, index: int, layout: BitLayout) -> bool:
    """One bit of a packed row, without unpacking it."""
    return bool(_bytes_view(row_words)[..., layout.pbyte[index]] & layout.pmask8[index])


# -- layout-parameterized mutation helpers -----------------------------------

def member_mask(indices: np.ndarray, layout: BitLayout) -> np.ndarray:
    """A packed (n_words,) row with exactly the given indices' bits set."""
    return bitops.scatter_mask(
        layout.pbyte[indices], layout.pmask8[indices], layout.row_bytes
    )


def keep_mask(indices: np.ndarray, layout: BitLayout) -> np.ndarray:
    """The packed complement of :func:`member_mask`: every *valid* bit
    except *indices* (padding stays clear, preserving the invariant)."""
    return member_mask(indices, layout) ^ layout.full_words


def clear_members(row_words: np.ndarray, indices: np.ndarray, layout: BitLayout) -> None:
    """Clear the given indices' bits of a packed (n_words,) row in place."""
    np.bitwise_and(row_words, keep_mask(indices, layout), out=row_words)
