"""Word-lattice (n-best hypothesis) parsing — the speech interface."""

from __future__ import annotations

import pytest

from repro import ParserSession, accepts, extract_parses
from repro.errors import GrammarError, LexiconError
from repro.grammar.builtin.english import english_grammar


@pytest.fixture(scope="module")
def grammar():
    return english_grammar()


class TestLatticeConstruction:
    def test_union_of_categories(self, grammar):
        sentence = grammar.tokenize_lattice([["the"], ["dog", "runs"]])
        noun = grammar.symbols.categories.code("noun")
        verb = grammar.symbols.categories.code("verb")
        assert sentence.category_sets[1] == frozenset({noun, verb})

    def test_words_rendered_with_alternatives(self, grammar):
        sentence = grammar.tokenize_lattice([["the"], ["dog", "duck"], ["runs"]])
        assert sentence.words == ("the", "dog|duck", "runs")

    def test_empty_lattice_rejected(self, grammar):
        with pytest.raises(GrammarError, match="empty lattice"):
            grammar.tokenize_lattice([])

    def test_empty_position_rejected(self, grammar):
        with pytest.raises(GrammarError, match="no hypotheses"):
            grammar.tokenize_lattice([["the"], []])

    def test_unknown_hypothesis_rejected(self, grammar):
        with pytest.raises(LexiconError):
            grammar.tokenize_lattice([["the"], ["zorp"]])


class TestLatticeParsing:
    def test_grammar_selects_the_consistent_hypothesis(self, grammar):
        """Recognizer confusion between a noun and a verb at position 3:
        after a subject only the verb reading survives."""
        lattice = grammar.tokenize_lattice([["the"], ["dog"], ["runs", "dogs"]])
        result = ParserSession(grammar, engine="vector").parse(lattice)
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        verb = grammar.symbols.categories.code("verb")
        assert parses[0].role_value(3, 0).cat == verb

    def test_ambiguous_lattice_keeps_both_readings(self, grammar):
        # "saw" the noun vs the verb, genuinely ambiguous in this frame:
        # the|*, saw|duck as pure confusion of two noun/verb words.
        lattice = grammar.tokenize_lattice(
            [["the"], ["man"], ["saw"], ["the"], ["duck"]]
        )
        result = ParserSession(grammar, engine="vector").parse(lattice)
        assert accepts(result.network)

    def test_inconsistent_lattice_rejected(self, grammar):
        lattice = grammar.tokenize_lattice([["the"], ["the", "a"], ["runs"]])
        result = ParserSession(grammar, engine="vector").parse(lattice)
        assert not accepts(result.network)

    def test_lattice_equals_best_path_parse(self, grammar):
        """A lattice whose extra hypotheses are all ungrammatical parses
        exactly like the clean sentence."""
        clean = ParserSession(grammar, engine="vector").parse("the dog runs")
        lattice = grammar.tokenize_lattice(
            [["the"], ["dog", "the"], ["runs", "in"]]
        )
        noisy = ParserSession(grammar, engine="vector").parse(lattice)
        clean_parse = extract_parses(clean.network, limit=None)
        noisy_parse = extract_parses(noisy.network, limit=None)
        assert len(clean_parse) == len(noisy_parse) == 1
        assert (
            clean_parse[0].pretty_assignment(grammar.symbols)
            == noisy_parse[0].pretty_assignment(grammar.symbols)
        )

    def test_all_engines_handle_lattices(self, grammar):
        import numpy as np

        lattice = grammar.tokenize_lattice([["the"], ["dog", "duck"], ["runs"]])
        reference = ParserSession(grammar, engine="vector").parse(lattice)
        for engine in ("serial", "maspar", "mesh"):
            result = ParserSession(grammar, engine=engine).parse(lattice)
            np.testing.assert_array_equal(result.network.alive, reference.network.alive)
