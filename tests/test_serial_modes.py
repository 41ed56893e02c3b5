"""The serial engine's exhaustive mode: same answers, O(n^4) work profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ParserSession
from repro.grammar.builtin import program_grammar
from repro.workloads import toy_sentence


class TestExhaustiveMode:
    @pytest.mark.parametrize("sentence", ["The program runs", "program the runs", "a program"])
    def test_same_final_network(self, sentence):
        pruned = ParserSession(program_grammar(), engine="serial").parse(sentence)
        exhaustive = ParserSession(program_grammar(), engine="serial-exhaustive").parse(sentence)
        vector = ParserSession(program_grammar(), engine="vector").parse(sentence)
        np.testing.assert_array_equal(pruned.network.alive, exhaustive.network.alive)
        np.testing.assert_array_equal(pruned.network.matrix, exhaustive.network.matrix)
        np.testing.assert_array_equal(vector.network.alive, exhaustive.network.alive)

    def test_exhaustive_checks_every_cross_role_pair(self):
        grammar = program_grammar()
        result = ParserSession(grammar, engine="serial-exhaustive").parse("The program runs")
        nv = result.network.nv
        # Same-role pairs (including self) are excluded from the sweep.
        per_role = nv // result.network.n_roles
        cross_pairs = nv * nv - result.network.n_roles * per_role * per_role
        expected = cross_pairs * len(grammar.binary_constraints)
        assert result.stats.pair_checks == expected

    def test_pruned_does_strictly_less_work(self):
        grammar = program_grammar()
        sentence = toy_sentence(5)
        pruned = ParserSession(grammar, engine="serial").parse(sentence)
        exhaustive = ParserSession(grammar, engine="serial-exhaustive").parse(sentence)
        assert pruned.stats.pair_checks < exhaustive.stats.pair_checks

    def test_exhaustive_work_independent_of_rejection(self):
        """The O(n^4) sweep costs the same whether the sentence parses."""
        grammar = program_grammar()
        exhaustive = ParserSession(grammar, engine="serial-exhaustive")
        good = exhaustive.parse(["the", "program", "runs"])
        bad = exhaustive.parse(["program", "the", "runs"])
        assert good.stats.pair_checks == bad.stats.pair_checks
