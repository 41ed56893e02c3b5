"""The extracted kernel core: bitops and the backend table.

Two layers:

* :mod:`repro.kernels.bitops` — the word-level primitives, checked
  against plain boolean numpy over shapes with NV % 64 != 0 trailing
  words (operands packed through :mod:`repro.network.bitset`);
* :mod:`repro.kernels.backend` — resolution (env var, explicit name,
  instance passthrough), the no-compiler fallback of ``native``, the
  digest-checked build cache, and end-to-end bit-identity of
  ``packed`` vs ``native`` across every registered engine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

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
        layout = dense_layout(130)
        target_bools = random_bools(rng, (37, 130))
        mask_bools = random_bools(rng, (37, 130))
        a = bitset.pack_rows(target_bools, layout)
        b = a.copy()
        mask = bitset.pack_rows(mask_bools, layout)
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

    @requires_compiler
    def test_truncated_cached_library_is_rebuilt(self, monkeypatch, tmp_path):
        # A short library handed to ctypes.CDLL can kill the process by
        # SIGBUS, so the probe runs in a child whose death is observable.
        monkeypatch.setenv(native_build.ENV_CACHE, str(tmp_path))
        library = native_build.build_library()
        data = library.read_bytes()
        library.write_bytes(data[: len(data) // 2])
        src = Path(__file__).resolve().parent.parent / "src"
        probe = "from repro.kernels import create_backend; print(create_backend('native').name)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == "native", proc.stderr
