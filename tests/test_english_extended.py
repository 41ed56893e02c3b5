"""Tests for the extended English grammar (pronouns, proper nouns,
copula + predicate adjectives, subject relative clauses)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ParserSession, accepts, extract_parses
from repro.grammar.builtin import english_extended_grammar


@pytest.fixture(scope="module")
def grammar():
    return english_extended_grammar()


def parse(grammar, text):
    return ParserSession(grammar, engine="vector").parse(text)


BASE_STILL_ACCEPTED = [
    "dogs bark",
    "the dog runs",
    "the big red dog runs quickly",
    "the dog sees the cat",
    "the man sees the woman with the telescope",
]

NEW_ACCEPTED = [
    "she sees him",
    "she runs",
    "they chase the cat",
    "the dog sees them",
    "it sees it",
    "mary likes john",
    "john runs in the park",
    "mary sees the dog with the telescope",
    "the dog is big",
    "she is happy",
    "john is old",
    "the dog that barks runs",
    "the dog that barks sees the cat",
    "the cat sees the dog that barks",
    "she sees the dog that sleeps",
]

REJECTED = [
    "him sees she",  # case violation: accusative subject
    "her runs",
    "she sees he",  # nominative object
    "the john runs",  # determiner on a proper noun
    "big is the dog",  # predicate adjective precedes the copula
    "the dog is big red",  # two predicates
    "the dog that runs",  # relative clause without a matrix verb
    "that barks runs",  # relative pronoun with no head noun
    "the dog that barks that runs sleeps",  # stacked relatives (one RROOT per noun)
    "the dog barks the cat barks",  # still a single root
]


class TestAcceptance:
    @pytest.mark.parametrize("text", BASE_STILL_ACCEPTED)
    def test_base_constructions_still_parse(self, grammar, text):
        assert accepts(parse(grammar, text).network), text

    @pytest.mark.parametrize("text", NEW_ACCEPTED)
    def test_new_constructions(self, grammar, text):
        assert accepts(parse(grammar, text).network), text

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejections(self, grammar, text):
        assert not accepts(parse(grammar, text).network), text


class TestStructures:
    def test_pronoun_case_labels(self, grammar):
        result = parse(grammar, "she sees him")
        graph = extract_parses(result.network)[0]
        mapping = graph.pretty_assignment(grammar.symbols)
        assert mapping[(1, "governor")] == "SUBJ-2"
        assert mapping[(3, "governor")] == "OBJ-2"

    def test_predicate_adjective_structure(self, grammar):
        result = parse(grammar, "the dog is big")
        graph = extract_parses(result.network)[0]
        mapping = graph.pretty_assignment(grammar.symbols)
        assert mapping[(4, "governor")] == "PRED-3"
        assert mapping[(2, "governor")] == "SUBJ-3"

    def test_relative_clause_structure(self, grammar):
        result = parse(grammar, "the dog that barks runs")
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        mapping = parses[0].pretty_assignment(grammar.symbols)
        assert mapping[(2, "governor")] == "SUBJ-5"  # dog -> runs
        assert mapping[(3, "governor")] == "RSUBJ-4"  # that -> barks
        assert mapping[(4, "governor")] == "RROOT-2"  # barks -> dog
        assert mapping[(4, "needs")] == "S-3"  # barks' subject is "that"
        assert mapping[(5, "governor")] == "ROOT-nil"

    def test_relative_clause_inside_object(self, grammar):
        result = parse(grammar, "the cat sees the dog that barks")
        graph = extract_parses(result.network)[0]
        mapping = graph.pretty_assignment(grammar.symbols)
        assert mapping[(6, "governor")] == "RSUBJ-7"
        assert mapping[(7, "governor")] == "RROOT-5"

    def test_lattice_with_pronoun_confusion(self, grammar):
        """Recognizer confusion she/her resolved by syntactic case."""
        lattice = grammar.tokenize_lattice([["she", "her"], ["sees"], ["him", "he"]])
        result = ParserSession(grammar, engine="vector").parse(lattice)
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        npron = grammar.symbols.categories.code("npron")
        apron = grammar.symbols.categories.code("apron")
        assert parses[0].role_value(1, 0).cat == npron
        assert parses[0].role_value(3, 0).cat == apron


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "text", ["she sees him", "the dog that barks runs", "the dog is big"]
    )
    def test_engines_settle_identically(self, grammar, text):
        reference = parse(grammar, text)
        for engine in ("serial", "maspar"):
            result = ParserSession(grammar, engine=engine).parse(text)
            np.testing.assert_array_equal(result.network.alive, reference.network.alive)
            np.testing.assert_array_equal(result.network.matrix, reference.network.matrix)
