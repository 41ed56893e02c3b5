"""Acceptance, rejection and disambiguation tests for the English grammar."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParserSession, accepts, extract_parses
from repro.grammar.builtin.english import english_grammar
from repro.workloads import random_sentence, sentence_of_length


@pytest.fixture(scope="module")
def grammar():
    return english_grammar()


def parse(grammar, text):
    return ParserSession(grammar, engine="vector").parse(text)


ACCEPTED = [
    "dogs bark",
    "the dog runs",
    "a big dog runs",
    "the big red dog runs quickly",
    "the dog sees the cat",
    "every student likes the computer",
    "the dog runs in the park",
    "the man sees the woman with the telescope",
    "the bird sleeps under the old tree",
    "dogs chase cats",
]

REJECTED = [
    "dog the runs",  # determiner after its noun
    "the runs",  # determiner with nothing to govern
    "runs the dog",  # subject must precede the verb
    "the dog cat runs",  # two nouns cannot share the subject slot
    "the dog the cat",  # no verb
    "dogs bark cats bark",  # two main verbs (single-root constraint)
    "quickly runs",  # adverb plus verb without a subject
    "the in dog runs",  # preposition with no object
    "big the dog runs",  # adjective before the determiner
    "the dog sees the cat the bird",  # two objects for one verb
]


class TestAcceptance:
    @pytest.mark.parametrize("text", ACCEPTED)
    def test_accepted(self, grammar, text):
        result = parse(grammar, text)
        assert result.locally_consistent, text
        assert accepts(result.network), text

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, grammar, text):
        result = parse(grammar, text)
        assert not accepts(result.network), text


class TestDisambiguation:
    def test_simple_sentences_are_unambiguous(self, grammar):
        for text in ("the dog runs", "dogs bark", "the dog sees the cat"):
            result = parse(grammar, text)
            assert len(extract_parses(result.network, limit=None)) == 1, text

    def test_pp_attachment_is_ambiguous(self, grammar):
        """The classic case: PP may attach to the verb or the object noun."""
        result = parse(grammar, "the man sees the woman with the telescope")
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 3  # attach to sees, woman, or man
        prep_heads = {
            parse.heads(0)[6] for parse in parses  # "with" is word 6's... position 6
        }
        # "with" is at position 6: its PP attaches to sees(3), woman(5) or man(2).
        assert prep_heads == {2, 3, 5}

    def test_ambiguity_flag_matches_extraction(self, grammar):
        ambiguous = parse(grammar, "the dog runs in the park")
        assert ambiguous.ambiguous
        unambiguous = parse(grammar, "the dog runs")
        assert not unambiguous.ambiguous

    def test_lexical_ambiguity_resolved_by_context(self, grammar):
        """'saw' is noun|verb; after a determiner it must be the noun."""
        result = parse(grammar, "the saw runs")
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        noun = grammar.symbols.categories.code("noun")
        saw_value = parses[0].role_value(2, 0)
        assert saw_value.cat == noun

    def test_duck_as_verb(self, grammar):
        result = parse(grammar, "dogs duck")
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        verb = grammar.symbols.categories.code("verb")
        assert parses[0].role_value(2, 0).cat == verb


class TestParseStructure:
    def test_transitive_clause_heads(self, grammar):
        result = parse(grammar, "the dog sees the cat")
        parse_graph = extract_parses(result.network)[0]
        heads = parse_graph.heads(0)
        assert heads == {1: 2, 2: 3, 3: 0, 4: 5, 5: 3}

    def test_pp_object_heads(self, grammar):
        result = parse(grammar, "the dog sleeps in the park")
        for parse_graph in extract_parses(result.network, limit=None):
            heads = parse_graph.heads(0)
            assert heads[5] == 6  # "the" -> park
            assert heads[6] == 4  # park -> in (POBJ)
            assert heads[4] in (2, 3)  # in -> dog or sleeps


class TestWorkloads:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_sentence_of_length_accepted(self, grammar, n):
        words = sentence_of_length(n)
        assert len(words) == n
        assert accepts(parse(grammar, words).network)

    def test_length_one_is_rejected_but_parses(self, grammar):
        result = parse(grammar, sentence_of_length(1))
        assert not result.locally_consistent

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            sentence_of_length(0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_sentences_accepted(self, grammar, seed):
        words = random_sentence(random.Random(seed))
        assert accepts(parse(grammar, words).network), " ".join(words)
