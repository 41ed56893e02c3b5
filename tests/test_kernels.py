"""The extracted kernel core: bitops, BMM, and the backend table.

Three layers:

* :mod:`repro.kernels.bitops` — dense pack/unpack, single-bit access,
  and the word-level primitives, checked against plain boolean numpy
  over shapes with NV % 64 != 0 trailing words;
* :mod:`repro.kernels.bmm` — the four-Russians product and the
  bit-plane product agree with the broadcast-any reference over
  non-square, empty, and padding-heavy operands;
* :mod:`repro.kernels.backend` — resolution (env var, explicit name,
  instance passthrough), the no-compiler fallback of ``native``, and
  end-to-end bit-identity of ``packed`` vs ``native`` across every
  registered engine.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.engines.registry import available_engines
from repro.errors import ReproError
from repro.grammar.builtin import program_grammar
from repro.kernels import bitops
from repro.kernels.backend import (
    DEFAULT_BACKEND,
    ENV_VAR,
    PackedBackend,
    available_backends,
    create_backend,
    default_backend,
    reset_backend_cache,
    resolve_backend_name,
)
from repro.kernels.bmm import bmm_four_russians, bmm_planes, bmm_reference
from repro.kernels.native import build as native_build
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.pipeline.session import ParserSession


requires_compiler = pytest.mark.skipif(
    native_build.find_compiler() is None,
    reason="no C compiler on this host (native backend falls back)",
)


def random_bools(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape) < 0.5


# ---------------------------------------------------------------------------
# bitops


class TestBitops:
    @pytest.mark.parametrize("n_bits", [1, 7, 63, 64, 65, 127, 128, 200])
    def test_pack_unpack_roundtrip_odd_widths(self, n_bits):
        rng = np.random.default_rng(n_bits)
        for shape in ((n_bits,), (5, n_bits), (3, 4, n_bits)):
            bools = random_bools(rng, shape)
            words = bitops.pack_bits(bools)
            assert words.dtype == bitops.WORD_DTYPE
            # Trailing-word padding must stay clear: popcount over the
            # raw words is exact.
            assert bitops.count_ones(words) == int(bools.sum())
            np.testing.assert_array_equal(bitops.unpack_bits(words, n_bits), bools)

    def test_set_and_test_bit_trailing_word(self):
        row = np.zeros(2, dtype=bitops.WORD_DTYPE)
        for index in (0, 63, 64, 70):
            assert not bitops.test_bit(row, index)
            bitops.set_bit(row, index)
            assert bitops.test_bit(row, index)
        assert bitops.count_ones(row) == 4

    def test_and_accumulate_returns_popcount_delta(self):
        rng = np.random.default_rng(3)
        target_bools = random_bools(rng, 130)
        mask_bools = random_bools(rng, 130)
        target = bitops.pack_bits(target_bools)
        mask = bitops.pack_bits(mask_bools)
        removed = bitops.and_accumulate(target, mask)
        assert removed == int((target_bools & ~mask_bools).sum())
        np.testing.assert_array_equal(
            bitops.unpack_bits(target, 130), target_bools & mask_bools
        )

    def test_empty_operands(self):
        empty = np.zeros(0, dtype=bitops.WORD_DTYPE)
        assert bitops.count_ones(empty) == 0
        assert bitops.and_accumulate(empty, empty) == 0
        assert bitops.pack_bits(np.zeros((0, 5), dtype=bool)).shape == (0, 1)


# ---------------------------------------------------------------------------
# bmm


BMM_SHAPES = [
    (1, 1, 1),
    (3, 70, 5),  # k spans two words; m, n tiny
    (17, 129, 66),  # every dimension straddles a word boundary
    (64, 64, 64),
    (100, 200, 130),
    (0, 10, 4),  # empty m
    (4, 0, 7),  # empty k
    (5, 3, 0),  # empty n
]


class TestBMM:
    @pytest.mark.parametrize("shape", BMM_SHAPES, ids=str)
    @pytest.mark.parametrize("kernel", [bmm_four_russians, bmm_planes])
    def test_matches_reference(self, shape, kernel):
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 10 + n)
        a_plane = random_bools(rng, (m, k))
        b_plane = random_bools(rng, (k, n))
        a_bits = bitops.pack_bits(a_plane)
        b_bits = bitops.pack_bits(b_plane)
        out = kernel(a_bits, b_bits)
        expected = bmm_reference(a_plane, b_plane)
        np.testing.assert_array_equal(bitops.unpack_bits(out, n), expected)
        # Non-square + NV % 64 != 0: padding in the product must stay
        # clear, or downstream popcounts drift.
        assert bitops.count_ones(out) == int(expected.sum())

    def test_rejects_mismatched_inner_dimension(self):
        a = np.zeros((2, 1), dtype=bitops.WORD_DTYPE)
        b = np.zeros((100, 1), dtype=bitops.WORD_DTYPE)
        with pytest.raises(ValueError):
            bmm_four_russians(a, b)

    def test_rejects_non_2d(self):
        a = np.zeros(1, dtype=bitops.WORD_DTYPE)
        with pytest.raises(ValueError):
            bmm_four_russians(a, a)


# ---------------------------------------------------------------------------
# backend table


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("native", "packed")

    def test_unknown_name_raises_and_lists_available(self, monkeypatch):
        with pytest.raises(ReproError, match="available: native, packed"):
            create_backend("no-such-backend")
        # A name from the environment fails when the session is built,
        # not at its first kernel call.
        monkeypatch.setenv(ENV_VAR, "auto")
        with pytest.raises(
            ReproError, match="unknown kernel backend 'auto'; available: native, packed"
        ):
            ParserSession(program_grammar())

    def test_instance_passes_through(self):
        instance = PackedBackend()
        assert create_backend(instance) is instance

    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert create_backend(None).name == DEFAULT_BACKEND

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "native")
        assert create_backend(None) is create_backend("native")
        assert default_backend() is create_backend("native")

    def test_resolution_order_explicit_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "native")
        assert resolve_backend_name("packed") == "packed"  # explicit wins
        assert resolve_backend_name(None) == "native"  # then env
        monkeypatch.delenv(ENV_VAR)
        assert resolve_backend_name(None) == DEFAULT_BACKEND  # then default

    def test_create_and_default_share_one_resolution(self, monkeypatch):
        # Regression: create_backend re-read the environment while
        # default_backend memoized, so the two could answer differently
        # in one process.  Both now go through resolve_backend_name and
        # the same per-name instance memo.
        monkeypatch.setenv(ENV_VAR, "native")
        assert create_backend(None) is default_backend()
        assert default_backend() is create_backend("native")
        monkeypatch.delenv(ENV_VAR)
        assert create_backend(None) is default_backend()
        assert default_backend().name == DEFAULT_BACKEND

    def test_available_backends_deterministic_sorted(self):
        names = available_backends()
        assert names == tuple(sorted(names))
        assert names == available_backends()

    def test_support_any_backends_agree(self):
        role_slices = (slice(0, 5), slice(5, 17), slice(17, 90))
        layout = BitLayout(role_slices)
        rng = np.random.default_rng(11)
        matrix_bools = random_bools(rng, (layout.nv, layout.nv))
        alive_bools = random_bools(rng, layout.nv)
        matrix = bitset.pack_rows(matrix_bools, layout)
        alive = bitset.pack_rows(alive_bools, layout)
        # Both backends match the set-level truth: segment s of row a
        # holds an alive partner.
        live = matrix_bools & alive_bools[None, :]
        expected = np.stack(
            [live[:, sl].any(axis=1) for sl in role_slices], axis=1
        )
        for backend in (PackedBackend(), create_backend("native")):
            np.testing.assert_array_equal(
                backend.support_any(matrix, alive, layout.seg_byte_starts), expected
            )


# ---------------------------------------------------------------------------
# end-to-end bit-identity across engines


class TestSessionBackendIdentity:
    SENTENCES = [["the", "program", "runs"], ["a", "program", "runs"]]

    @requires_compiler
    @pytest.mark.parametrize("engine", available_engines())
    def test_packed_and_native_bit_identical(self, engine):
        grammar = program_grammar()
        for words in self.SENTENCES:
            results = {}
            for backend in ("packed", "native"):
                session = ParserSession(grammar, engine=engine, backend=backend)
                result = session.parse(words)
                assert result.stats.extra["kernel_backend"] == backend
                results[backend] = result
            a, b = results["packed"], results["native"]
            assert a.locally_consistent == b.locally_consistent
            assert a.ambiguous == b.ambiguous
            np.testing.assert_array_equal(
                a.network.alive_bits, b.network.alive_bits
            )
            np.testing.assert_array_equal(
                a.network.matrix_bits, b.network.matrix_bits
            )

    def test_session_records_backend_name(self):
        session = ParserSession(program_grammar(), backend="native")
        result = session.parse(["the", "program", "runs"])
        # On a host without a compiler this is the packed fallback.
        assert session.kernel_backend is create_backend("native")
        assert result.stats.extra["kernel_backend"] == session.kernel_backend.name


# ---------------------------------------------------------------------------
# native compiled backend

@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a compiler-less host: bogus CC, empty build cache.

    Both knobs matter — a previously built .so in the real cache would
    load fine without any compiler, hiding the path under test.
    """
    monkeypatch.setenv(native_build.ENV_CC, str(tmp_path / "no-such-cc"))
    monkeypatch.setenv(native_build.ENV_CACHE, str(tmp_path / "native-cache"))
    reset_backend_cache()
    yield
    reset_backend_cache()


@requires_compiler
class TestNativeBackend:
    @pytest.mark.parametrize("shape", BMM_SHAPES, ids=str)
    def test_bmm_matches_reference(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 10 + n)
        a_plane = random_bools(rng, (m, k))
        b_plane = random_bools(rng, (k, n))
        a_bits = bitops.pack_bits(a_plane)
        b_bits = bitops.pack_bits(b_plane)
        native = create_backend("native")
        out = native.bmm(a_bits, b_bits)
        np.testing.assert_array_equal(out, bmm_four_russians(a_bits, b_bits))
        expected = bmm_reference(a_plane, b_plane)
        np.testing.assert_array_equal(bitops.unpack_bits(out, n), expected)
        # Product padding must stay clear or downstream popcounts drift.
        assert bitops.count_ones(out) == int(expected.sum())

    def test_support_any_matches_packed(self):
        role_slices = (slice(0, 5), slice(5, 17), slice(17, 90))
        layout = BitLayout(role_slices)
        rng = np.random.default_rng(23)
        matrix = bitset.pack_rows(random_bools(rng, (layout.nv, layout.nv)), layout)
        alive = bitset.pack_rows(random_bools(rng, layout.nv), layout)
        native = create_backend("native")
        expected = PackedBackend().support_any(matrix, alive, layout.seg_byte_starts)
        got = native.support_any(matrix, alive, layout.seg_byte_starts)
        assert got.dtype == np.dtype(bool)
        np.testing.assert_array_equal(got, expected)

    def test_and_accumulate_matches_packed(self):
        rng = np.random.default_rng(31)
        target_bools = random_bools(rng, (37, 130))
        mask_bools = random_bools(rng, (37, 130))
        a = bitops.pack_bits(target_bools)
        b = a.copy()
        mask = bitops.pack_bits(mask_bools)
        native = create_backend("native")
        delta_packed = PackedBackend().and_accumulate(a, mask)
        delta_native = native.and_accumulate(b, mask)
        assert delta_native == delta_packed
        np.testing.assert_array_equal(a, b)
        assert native.count_ones(b) == bitops.count_ones(a)

    def test_in_place_target_must_be_writable_words(self):
        native = create_backend("native")
        mask = np.zeros((2, 2), dtype=bitops.WORD_DTYPE)
        with pytest.raises(ReproError, match="'<u8'"):
            native.and_accumulate(np.zeros((2, 2), dtype=np.uint32), mask)
        frozen = np.zeros((2, 2), dtype=bitops.WORD_DTYPE)
        frozen.setflags(write=False)
        with pytest.raises(ReproError, match="writable"):
            native.and_accumulate(frozen, mask)

    def test_session_parse_bit_identical_to_packed(self):
        grammar = program_grammar()
        words = ["the", "program", "runs"]
        ref = ParserSession(grammar, backend="packed").parse(words)
        got = ParserSession(grammar, backend="native").parse(words)
        assert got.stats.extra["kernel_backend"] == "native"
        assert got.locally_consistent == ref.locally_consistent
        np.testing.assert_array_equal(got.network.alive_bits, ref.network.alive_bits)
        np.testing.assert_array_equal(got.network.matrix_bits, ref.network.matrix_bits)


class TestNativeFallback:
    def test_no_compiler_degrades_to_packed_with_one_warning(self, no_toolchain):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = create_backend("native")
        assert backend.name == DEFAULT_BACKEND
        # Warn once per process: the fallback instance is memoized.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert create_backend("native") is backend

    def test_no_compiler_session_still_parses(self, no_toolchain):
        with pytest.warns(RuntimeWarning, match="falling back"):
            session = ParserSession(program_grammar(), backend="native")
        result = session.parse(["the", "program", "runs"])
        assert result.locally_consistent
        assert result.stats.extra["kernel_backend"] == DEFAULT_BACKEND

    def test_find_compiler_env_override_must_exist(self, no_toolchain):
        assert native_build.find_compiler() is None
