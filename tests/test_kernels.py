"""The extracted kernel core: bitops and the one kernel backend.

Two layers:

* :mod:`repro.kernels.bitops` — the word-level primitives, checked
  against plain boolean numpy over shapes with NV % 64 != 0 trailing
  words (operands packed through :mod:`repro.network.bitset`);
* :mod:`repro.kernels.backend` — the packed ``support_any`` against the
  set-level truth, and :func:`create_backend`: None gives the shared
  instance, an instance passes through, anything else is an error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.grammar.builtin import program_grammar
from repro.kernels import bitops
from repro.kernels.backend import KernelBackend, create_backend
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.pipeline.session import ParserSession


def random_bools(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape) < 0.5


def dense_layout(n_bits: int) -> BitLayout:
    """One role of *n_bits* values: bit *i* of a packed row is element *i*."""
    return BitLayout((slice(0, n_bits),))


# ---------------------------------------------------------------------------
# bitops


class TestBitops:
    @pytest.mark.parametrize("n_bits", [1, 7, 63, 64, 65, 127, 128, 200])
    def test_pack_unpack_roundtrip_odd_widths(self, n_bits):
        rng = np.random.default_rng(n_bits)
        layout = dense_layout(n_bits)
        for shape in ((n_bits,), (5, n_bits), (3, 4, n_bits)):
            bools = random_bools(rng, shape)
            words = bitset.pack_rows(bools, layout)
            assert words.dtype == bitops.WORD_DTYPE
            # Trailing-word padding must stay clear: popcount over the
            # raw words is exact.
            assert bitops.count_ones(words) == int(bools.sum())
            np.testing.assert_array_equal(bitset.unpack_rows(words, layout), bools)

    def test_and_accumulate_returns_popcount_delta(self):
        rng = np.random.default_rng(3)
        layout = dense_layout(130)
        target_bools = random_bools(rng, 130)
        mask_bools = random_bools(rng, 130)
        target = bitset.pack_rows(target_bools, layout)
        mask = bitset.pack_rows(mask_bools, layout)
        removed = bitops.and_accumulate(target, mask)
        assert removed == int((target_bools & ~mask_bools).sum())
        np.testing.assert_array_equal(
            bitset.unpack_rows(target, layout), target_bools & mask_bools
        )

    def test_empty_operands(self):
        empty = np.zeros(0, dtype=bitops.WORD_DTYPE)
        assert bitops.count_ones(empty) == 0
        assert bitops.and_accumulate(empty, empty) == 0
        assert bitset.pack_rows(np.zeros((0, 5), dtype=bool), dense_layout(5)).shape == (0, 1)


# ---------------------------------------------------------------------------
# the kernel backend


class TestBackendRegistry:
    def test_instance_passes_through(self):
        instance = KernelBackend()
        assert create_backend(instance) is instance

    def test_default_is_packed(self):
        assert create_backend() is create_backend(None)
        assert create_backend(None).name == "packed"

    def test_string_backend_raises(self):
        for name in ("packed", "native"):
            with pytest.raises(ReproError, match="no longer picked by name"):
                create_backend(name)
            with pytest.raises(ReproError, match="no longer picked by name"):
                ParserSession(program_grammar(), backend=name)

    def test_support_any_backends_agree(self):
        role_slices = (slice(0, 5), slice(5, 17), slice(17, 90))
        layout = BitLayout(role_slices)
        rng = np.random.default_rng(11)
        matrix_bools = random_bools(rng, (layout.nv, layout.nv))
        alive_bools = random_bools(rng, layout.nv)
        matrix = bitset.pack_rows(matrix_bools, layout)
        alive = bitset.pack_rows(alive_bools, layout)
        # The backend matches the set-level truth: segment s of row a
        # holds an alive partner.
        live = matrix_bools & alive_bools[None, :]
        expected = np.stack(
            [live[:, sl].any(axis=1) for sl in role_slices], axis=1
        )
        np.testing.assert_array_equal(
            KernelBackend().support_any(matrix, alive, layout.seg_byte_starts), expected
        )


class TestSessionBackendIdentity:
    def test_session_records_backend_name(self):
        session = ParserSession(program_grammar())
        result = session.parse(["the", "program", "runs"])
        assert session.kernel_backend is create_backend(None)
        assert result.stats.extra["kernel_backend"] == "packed"
