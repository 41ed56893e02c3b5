"""Tests for the 2-D mesh substrate and the mesh CDG engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ParserSession
from repro.errors import MachineError
from repro.grammar.builtin import dyck_grammar, program_grammar
from repro.grammar.builtin.english import english_grammar
from repro.mesh import MeshMachine
from repro.workloads import sentence_of_length, toy_sentence


class TestMeshMachine:
    def test_alloc_and_plane(self):
        mesh = MeshMachine(2, 3)
        plane = mesh.alloc("x", tail=(4,))
        assert plane.shape == (2, 3, 4)
        assert mesh.plane("x") is plane

    def test_double_alloc_rejected(self):
        mesh = MeshMachine(2, 2)
        mesh.alloc("x")
        with pytest.raises(MachineError):
            mesh.alloc("x")

    def test_missing_plane_rejected(self):
        with pytest.raises(MachineError):
            MeshMachine(2, 2).plane("nope")

    def test_bad_dimensions(self):
        with pytest.raises(MachineError):
            MeshMachine(0, 4)

    def test_compute_counts_steps_and_work(self):
        mesh = MeshMachine(3, 3)
        mesh.alloc("x")
        mesh.compute(lambda x: None, "x", work_per_cell=7)
        assert mesh.stats.compute_steps == 1
        assert mesh.stats.local_work == 7 * 9

    def test_row_reduce_broadcast(self):
        mesh = MeshMachine(2, 3)
        values = np.array([[1, 0, 0], [0, 0, 0]], dtype=bool)
        out = mesh.row_reduce_broadcast(values, "or")
        assert out[0].all() and not out[1].any()
        assert mesh.stats.comm_steps == 2 * 2  # 2 (C - 1)

    def test_col_reduce_broadcast(self):
        mesh = MeshMachine(3, 2)
        values = np.array([[5, 1], [2, 8], [3, 3]])
        out = mesh.col_reduce_broadcast(values, "max")
        assert (out == np.array([[5, 8]] * 3)).all()
        assert mesh.stats.comm_steps == 2 * 2  # 2 (R - 1)

    def test_reduce_ops(self):
        mesh = MeshMachine(1, 4)
        values = np.array([[1, 2, 3, 4]])
        assert mesh.row_reduce_broadcast(values, "add")[0, 0] == 10
        with pytest.raises(MachineError):
            mesh.row_reduce_broadcast(values, "xor")

    def test_shift(self):
        mesh = MeshMachine(2, 2)
        values = np.array([[1, 2], [3, 4]])
        out = mesh.shift(values, 0, 1)
        assert (out == np.array([[0, 1], [0, 3]])).all()
        with pytest.raises(MachineError):
            mesh.shift(values, 2, 0)


class TestMeshEngine:
    @pytest.mark.parametrize(
        "grammar,sentence",
        [
            (program_grammar(), "The program runs"),
            (program_grammar(), "runs"),
            (program_grammar(), "the the program runs"),
            (english_grammar(), "the dog runs in the park"),
            (english_grammar(), "dog the runs"),
            (dyck_grammar(), list("([])")),
        ],
        ids=["toy", "one-word", "reject", "english-pp", "english-reject", "dyck"],
    )
    def test_settles_identically_to_vector(self, grammar, sentence):
        mesh = ParserSession(grammar, engine="mesh").parse(sentence)
        vector = ParserSession(grammar, engine="vector").parse(sentence)
        np.testing.assert_array_equal(mesh.network.alive, vector.network.alive)
        np.testing.assert_array_equal(mesh.network.matrix, vector.network.matrix)

    def test_uses_quadratic_cells(self):
        result = ParserSession(english_grammar(), engine="mesh").parse(sentence_of_length(8))
        assert result.stats.processors == (8 * 2) ** 2  # (q n)^2 cells

    def test_mesh_time_reported(self):
        result = ParserSession(program_grammar(), engine="mesh").parse("The program runs")
        extra = result.stats.extra
        assert extra["mesh_time"] == extra["local_work"] // extra["cells"] + extra["comm_steps"]
        assert extra["compute_steps"] > 0 and extra["comm_steps"] > 0

    def test_mesh_time_grows_quadratically(self):
        """The Figure-8 claim: O(n^2) time on O(n^2) PEs for constant k."""
        from repro.analysis import fit_power_law

        grammar = program_grammar()
        ns = [3, 6, 9, 12]
        times = [
            ParserSession(grammar, engine="mesh").parse(toy_sentence(n)).stats.extra["mesh_time"]
            for n in ns
        ]
        fit = fit_power_law(ns, times)
        assert 1.6 < fit.exponent < 2.4, fit

    def test_filter_limit(self):
        bounded = ParserSession(english_grammar(), engine="mesh").parse(
            "the dog sees the cat", filter_limit=0
        )
        assert bounded.stats.filtering_iterations == 0

    def test_trace_events(self):
        events = []
        ParserSession(program_grammar(), engine="mesh").parse(
            "The program runs", trace=lambda e, n: events.append(e)
        )
        assert "unary-done" in events and "filtering-done" in events
