"""Tests for incremental (contextual) constraint application — section 1.5."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Constraint, ParserSession, count_parses, extract_parses
from repro.grammar.builtin.english import english_grammar
from repro.propagation import apply_constraint, apply_constraints

SENTENCE = "the man sees the woman with the telescope"


@pytest.fixture
def ambiguous_network():
    grammar = english_grammar()
    return grammar, ParserSession(grammar, engine="vector").parse(SENTENCE).network


def pp_to_root(grammar) -> Constraint:
    return Constraint.parse(
        """
        (if (and (eq (lab x) PP)
                 (eq (role y) governor)
                 (eq (pos y) (mod x)))
            (eq (lab y) ROOT))
        """,
        grammar.symbols,
        name="pp-to-root",
    )


class TestApplyConstraint:
    def test_binary_collapses_ambiguity(self, ambiguous_network):
        grammar, network = ambiguous_network
        assert count_parses(network) == 3
        apply_constraint(network, pp_to_root(grammar))
        parses = extract_parses(network, limit=None)
        assert len(parses) == 1
        assert parses[0].heads(0)[6] == 3  # "with" -> "sees"

    def test_unary_constraint(self, ambiguous_network):
        grammar, network = ambiguous_network
        # Force the PP's modifiee directly (a unary contextual cue).
        cue = Constraint.parse(
            "(if (eq (lab x) PP) (eq (mod x) 5))", grammar.symbols, name="cue"
        )
        eliminated = apply_constraint(network, cue)
        assert eliminated > 0
        parses = extract_parses(network, limit=None)
        assert len(parses) == 1
        assert parses[0].heads(0)[6] == 5

    def test_returns_total_eliminations(self, ambiguous_network):
        grammar, network = ambiguous_network
        before = int(network.alive.sum())
        eliminated = apply_constraint(network, pp_to_root(grammar))
        assert eliminated == before - int(network.alive.sum())

    def test_equivalent_to_reparse_with_extended_grammar(self, ambiguous_network):
        """Applying C incrementally == parsing with grammar + C."""
        grammar, network = ambiguous_network
        apply_constraint(network, pp_to_root(grammar))

        from repro.grammar.builtin.english import english_grammar as build

        extended = build.__wrapped__()  # fresh, uncached grammar instance
        extended.constraints.append(pp_to_root(extended))
        reference = ParserSession(extended, engine="vector").parse(SENTENCE).network
        np.testing.assert_array_equal(network.alive, reference.alive)
        np.testing.assert_array_equal(network.matrix, reference.matrix)

    def test_contradictory_constraint_rejects(self, ambiguous_network):
        grammar, network = ambiguous_network
        impossible = Constraint.parse(
            "(if (eq (role x) governor) (eq (pos x) 99))",
            grammar.symbols,
            name="impossible",
        )
        apply_constraint(network, impossible)
        assert not network.all_domains_nonempty()
        assert count_parses(network) == 0

    def test_idempotent(self, ambiguous_network):
        grammar, network = ambiguous_network
        constraint = pp_to_root(grammar)
        apply_constraint(network, constraint)
        again = apply_constraint(network, constraint)
        assert again == 0


class TestApplyConstraints:
    def test_staged_sets_accumulate(self, ambiguous_network):
        grammar, network = ambiguous_network
        stage = [
            pp_to_root(grammar),
            Constraint.parse(
                "(if (eq (lab x) PP) (gt (mod x) 1))", grammar.symbols, name="extra"
            ),
        ]
        total = apply_constraints(network, stage)
        assert total >= 1
        assert count_parses(network) == 1

    def test_empty_set_is_noop(self, ambiguous_network):
        _, network = ambiguous_network
        assert apply_constraints(network, []) == 0
