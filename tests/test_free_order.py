"""Order-free parsing (paper section 1.5): "no notion of left-to-right"."""

from __future__ import annotations

import itertools

import pytest

from repro import ParserSession, accepts, extract_parses
from repro.grammar.builtin.free_order import free_order_grammar

CLAUSE = ["puella", "amat", "agricolam"]  # girl-NOM loves farmer-ACC


@pytest.fixture(scope="module")
def grammar():
    return free_order_grammar()


class TestAllOrdersParse:
    def test_every_permutation_accepted(self, grammar):
        for order in itertools.permutations(CLAUSE):
            result = ParserSession(grammar, engine="vector").parse(list(order))
            assert accepts(result.network), order

    def test_every_permutation_yields_the_same_structure(self, grammar):
        """SVO, SOV, VSO, ... all mean girl-loves-farmer."""
        for order in itertools.permutations(CLAUSE):
            words = list(order)
            result = ParserSession(grammar, engine="vector").parse(words)
            parses = extract_parses(result.network, limit=None)
            assert len(parses) == 1, order
            heads = parses[0].heads(0)
            verb = words.index("amat") + 1
            subject = words.index("puella") + 1
            obj = words.index("agricolam") + 1
            assert heads[subject] == verb
            assert heads[obj] == verb
            assert heads[verb] == 0

    def test_intransitive_in_both_orders(self, grammar):
        # "verb needs a subject" but an object is optional.
        for words in (["stella", "videt"], ["videt", "stella"]):
            result = ParserSession(grammar, engine="vector").parse(words)
            assert accepts(result.network), words


class TestCaseStillGoverns:
    @pytest.mark.parametrize(
        "words",
        [
            ["puellam", "amat", "agricolam"],  # two accusatives, no subject
            ["puella", "amat", "agricola"],  # two nominatives
            ["amat", "agricolam"],  # no subject at all
            ["puella", "agricolam"],  # no verb
            ["puella", "amat", "agricolam", "stellam"],  # two objects
            ["puella", "amat", "videt"],  # two verbs
        ],
    )
    def test_rejections_in_canonical_order(self, grammar, words):
        result = ParserSession(grammar, engine="vector").parse(words)
        assert not accepts(result.network), words

    def test_rejections_hold_in_every_order(self, grammar):
        """Bad case frames stay bad no matter how they are permuted."""
        for bad in (["puellam", "amat", "agricolam"], ["puella", "amat", "agricola"]):
            for order in itertools.permutations(bad):
                result = ParserSession(grammar, engine="vector").parse(list(order))
                assert not accepts(result.network), order

    def test_no_constraint_mentions_word_order(self, grammar):
        """The grammar text itself contains no position comparisons."""
        for constraint in grammar.constraints:
            assert "(lt (pos" not in constraint.source
            assert "(gt (pos" not in constraint.source
            assert "(lt (mod" not in constraint.source
            assert "(gt (mod" not in constraint.source
