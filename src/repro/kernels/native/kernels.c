/* Native word-level kernels for the repro parser family.
 *
 * Compiled on demand by repro.kernels.native.build (cc -O3 -shared
 * -fPIC) and called through ctypes.  The contract mirrors
 * repro.kernels.bitops exactly:
 *
 *   - words are little-endian uint64 bit-planes; bit i of a packed row
 *     lives in byte i >> 3 at in-byte position i & 7.  x86-64 and
 *     aarch64 are little-endian, so a uint64 load sees the same bit
 *     order numpy's '<u8' view does; the Python wrapper refuses to
 *     load this library on a big-endian host.
 *   - padding / slack bits are zero on every input, and every routine
 *     here preserves that invariant (AND against zero stays zero), so
 *     popcount deltas are exact.
 *   - 2-D inputs are dense row-major: row i of an (m, w) operand
 *     starts at element i * w.
 *
 * Nothing here allocates: callers pass every output buffer, so the
 * Python wrapper stays in charge of lifetimes and the hot loops stay
 * malloc-free.
 */

#include <stdint.h>
#include <stddef.h>

/* The consistency sweep's OR-reduction: out[i, s] = 1 iff row i of
 * (matrix AND alive) keeps a set bit inside byte segment s.
 *
 * Segments are byte-aligned half-open ranges [seg_starts[s],
 * seg_starts[s + 1]) over each packed row's byte view, the last one
 * running to row_bytes = n_words * 8 — exactly the ranges
 * bitops.or_segments reduces over.
 */
void repro_support_any(const uint64_t *matrix, size_t rows, size_t n_words,
                       const uint64_t *alive,
                       const int64_t *seg_starts, size_t n_segs,
                       uint8_t *out)
{
    const uint8_t *alive8 = (const uint8_t *)alive;
    size_t row_bytes = n_words * 8;
    for (size_t i = 0; i < rows; ++i) {
        const uint8_t *mrow = (const uint8_t *)(matrix + i * n_words);
        uint8_t *orow = out + i * n_segs;
        for (size_t s = 0; s < n_segs; ++s) {
            size_t start = (size_t)seg_starts[s];
            size_t end = (s + 1 < n_segs) ? (size_t)seg_starts[s + 1] : row_bytes;
            uint8_t acc = 0;
            for (size_t p = start; p < end; ++p)
                acc |= mrow[p] & alive8[p];
            orow[s] = acc != 0;
        }
    }
}

/* AND mask into target in place; return the number of bits cleared.
 * Exact popcount arithmetic: both sides keep their padding zero. */
uint64_t repro_and_accumulate(uint64_t *target, const uint64_t *mask, size_t n)
{
    uint64_t cleared = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t before = target[i];
        uint64_t after = before & mask[i];
        target[i] = after;
        cleared += (uint64_t)__builtin_popcountll(before)
                 - (uint64_t)__builtin_popcountll(after);
    }
    return cleared;
}

/* Total population count of a packed word array. */
uint64_t repro_count_ones(const uint64_t *words, size_t n)
{
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += (uint64_t)__builtin_popcountll(words[i]);
    return total;
}
