"""The runtime sanitizer (repro.analysis.sanitizer).

Run with ``pytest -m sanitize`` (the CI smoke job) or as part of the
full suite.  Each test enables the sanitizer through the ``sanitized``
fixture, seeds a violation, and asserts the sanitizer names it.
"""

from __future__ import annotations

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import ParserSession, create_engine
from repro.analysis import sanitizer as sanitizer_module
from repro.grammar.builtin import program_grammar

pytestmark = pytest.mark.sanitize


class TestCleanRunsStayClean:
    @pytest.mark.parametrize("engine", ["serial", "vector"])
    def test_normal_parse_raises_nothing(self, sanitized, toy_grammar, engine):
        session = ParserSession(toy_grammar, engine=create_engine(engine))
        result = session.parse("The program runs")
        assert result.locally_consistent
        assert result.network.packed_active
        assert sanitized.diagnostics() == []

    def test_enable_is_idempotent_and_disable_restores(self, sanitized):
        from repro.network.network import ConstraintNetwork

        patched = ConstraintNetwork.kill
        sanitized.enable()
        assert ConstraintNetwork.kill is patched  # no double wrap


class TestMonotonicity:
    def test_seeded_zero_to_one_flip_is_caught_at_repack(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="vector")
        network = session.parse("The program runs").network
        network.materialize_bool()
        matrix = network.matrix
        dead = np.argwhere(~matrix)
        assert dead.size, "need at least one zeroed arc to revive"
        a, b = dead[0]
        matrix[a, b] = True  # the bug class the paper's discipline forbids
        with pytest.raises(sanitizer_module.SanitizerError, match="monotonicity"):
            network.repack()

    def test_seeded_alive_revival_is_caught(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="serial")
        network = session.parse("The program runs").network
        killed = np.argwhere(~network.alive)
        if not killed.size:
            pytest.skip("parse killed nothing")
        network.materialize_bool()
        network.alive[killed[0, 0]] = True
        with pytest.raises(sanitizer_module.SanitizerError, match="alive_bits"):
            network.repack()

    def test_clean_materialize_repack_passes(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="vector")
        network = session.parse("The program runs").network
        before = network.matrix_bits.copy()
        network.materialize_bool()
        network.repack()
        np.testing.assert_array_equal(network.matrix_bits, before)


class TestThreadOwnership:
    def test_cross_thread_session_reuse_is_caught(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="vector")
        session.parse("The program runs")  # this thread now owns it

        caught: list[BaseException] = []

        def reuse():
            try:
                session.parse("The program runs")
            except sanitizer_module.SanitizerError as error:
                caught.append(error)

        thread = threading.Thread(target=reuse)
        thread.start()
        thread.join()
        assert len(caught) == 1
        assert "cross-thread" in str(caught[0])

    def test_same_thread_reuse_is_fine(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="vector")
        session.parse("The program runs")
        session.parse("The program runs")

    def test_clone_starts_unowned(self, sanitized, toy_grammar):
        session = ParserSession(toy_grammar, engine="vector")
        network = session.parse("The program runs").network
        clone = network.clone()

        done: list[bool] = []

        def touch():
            clone.kill(np.asarray([], dtype=np.int64))
            done.append(True)

        thread = threading.Thread(target=touch)
        thread.start()
        thread.join()
        assert done == [True]


class TestEnvEnable:
    def test_maybe_enable_from_env(self, monkeypatch):
        monkeypatch.setenv(sanitizer_module.ENV_VAR, "0")
        assert not sanitizer_module.maybe_enable_from_env()
        monkeypatch.setenv(sanitizer_module.ENV_VAR, "1")
        try:
            assert sanitizer_module.maybe_enable_from_env()
            assert sanitizer_module.is_enabled()
        finally:
            sanitizer_module.disable()

    def test_import_repro_with_env_set_enables(self):
        code = (
            "import repro\n"
            "from repro.analysis import sanitizer\n"
            "raise SystemExit(0 if sanitizer.is_enabled() else 1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"REPRO_SANITIZE": "1", "PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
