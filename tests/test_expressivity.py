"""CLAIM-E: CDG expressivity is strictly greater than CFG (section 1.5).

Two concrete demonstrations, both property-tested against oracles:

* ``a^n b^n`` — a context-free language, recognized by a CDG grammar
  *and* by the CFG machinery (CYK/Earley agree with the CDG parser);
* ``ww`` — not context-free, recognized by a CDG grammar; the nearest
  CFL (even palindromes, w w^R) provably disagrees with it, which the
  tests exhibit on concrete strings.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParserSession, accepts, extract_parses
from repro.cfg import (
    anbn_cfg,
    cyk_accepts,
    earley_accepts,
    palindrome_cfg,
    to_cnf,
    typed_brackets_cfg,
)
from repro.grammar.builtin import (
    anbn_grammar,
    anbn_oracle,
    copy_language_grammar,
    copy_oracle,
    dyck_grammar,
    dyck_oracle,
)

letter_strings = st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8)


def cdg_accepts(grammar, words) -> bool:
    return accepts(ParserSession(grammar, engine="vector").parse(list(words)).network)


class TestAnBn:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_accepts_anbn(self, n):
        assert cdg_accepts(anbn_grammar(), ["a"] * n + ["b"] * n)

    @pytest.mark.parametrize(
        "words",
        [
            ["a"],
            ["b"],
            ["b", "a"],
            ["a", "b", "a", "b"],
            ["a", "a", "b"],
            ["a", "b", "b"],
            ["a", "a", "b", "b", "b"],
        ],
    )
    def test_rejects_non_members(self, words):
        assert not cdg_accepts(anbn_grammar(), words)

    @settings(max_examples=60, deadline=None)
    @given(words=letter_strings)
    def test_matches_oracle(self, words):
        assert cdg_accepts(anbn_grammar(), words) == anbn_oracle(words)

    @settings(max_examples=40, deadline=None)
    @given(words=letter_strings)
    def test_cdg_and_cfg_agree(self, words):
        """The same CFL through both formalisms: CDG == CYK == Earley."""
        cdg = cdg_accepts(anbn_grammar(), words)
        assert cdg == cyk_accepts(to_cnf(anbn_cfg()), words)
        assert cdg == earley_accepts(anbn_cfg(), words)

    def test_parses_are_the_two_bijections(self):
        """The grammar does not impose monotonicity (a^n b^n does not need
        it), so aabb has exactly the two a<->b matchings."""
        result = ParserSession(anbn_grammar(), engine="vector").parse(["a", "a", "b", "b"])
        parses = extract_parses(result.network, limit=None)
        matchings = {tuple(sorted(p.heads(0).items())) for p in parses}
        assert matchings == {
            ((1, 3), (2, 4), (3, 0), (4, 0)),
            ((1, 4), (2, 3), (3, 0), (4, 0)),
        }


class TestCopyLanguage:
    @pytest.mark.parametrize(
        "w",
        [["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "a", "b"], ["a", "b", "b", "a"]],
    )
    def test_accepts_ww(self, w):
        assert cdg_accepts(copy_language_grammar(), w + w)

    @pytest.mark.parametrize(
        "words",
        [
            ["a"],
            ["a", "b"],
            ["a", "a", "b", "b"],  # palindrome-ish but not ww
            ["a", "b", "b", "a"],  # w w^R, not w w
            ["a", "a", "a"],
            ["b", "a", "a", "b", "a", "b"],
        ],
    )
    def test_rejects_non_members(self, words):
        assert not cdg_accepts(copy_language_grammar(), words)

    def test_exhaustive_up_to_length_6(self):
        for n in range(1, 7):
            for s in itertools.product("ab", repeat=n):
                words = list(s)
                assert cdg_accepts(copy_language_grammar(), words) == copy_oracle(
                    words
                ), words

    @settings(max_examples=60, deadline=None)
    @given(words=letter_strings)
    def test_matches_oracle(self, words):
        assert cdg_accepts(copy_language_grammar(), words) == copy_oracle(words)

    def test_beyond_cfg_separation(self):
        """ww and its CFL lookalike w w^R genuinely differ — and the CDG
        grammar tracks the non-context-free one."""
        palindromes = to_cnf(palindrome_cfg())
        # abba: palindrome yes, copy no.
        assert cyk_accepts(palindromes, list("abba"))
        assert not cdg_accepts(copy_language_grammar(), list("abba"))
        # abab: copy yes, palindrome no.
        assert cdg_accepts(copy_language_grammar(), list("abab"))
        assert not cyk_accepts(palindromes, list("abab"))

    def test_copy_parse_is_unique(self):
        result = ParserSession(copy_language_grammar(), engine="vector").parse(list("abab"))
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        heads = parses[0].heads(0)
        assert heads[1] == 3 and heads[2] == 4


class TestDyck:
    """Nested matching (D2) — the third structural idiom, context-free."""

    @pytest.mark.parametrize(
        "text", ["()", "[]", "([])", "()[]", "(()())", "[()]()", "((((()))))"]
    )
    def test_accepts_balanced(self, text):
        assert cdg_accepts(dyck_grammar(), list(text))

    @pytest.mark.parametrize(
        "text", ["(", ")", ")(", "(]", "([)]", "(()", "())", "[](", "[[]"]
    )
    def test_rejects_unbalanced(self, text):
        assert not cdg_accepts(dyck_grammar(), list(text))

    def test_exhaustive_up_to_length_5(self):
        for n in range(1, 6):
            for s in itertools.product("()[]", repeat=n):
                words = list(s)
                assert cdg_accepts(dyck_grammar(), words) == dyck_oracle(words), words

    @settings(max_examples=40, deadline=None)
    @given(words=st.lists(st.sampled_from(list("()[]")), min_size=1, max_size=8))
    def test_cdg_and_cfg_agree(self, words):
        cdg = cdg_accepts(dyck_grammar(), words)
        assert cdg == dyck_oracle(words)
        assert cdg == cyk_accepts(to_cnf(typed_brackets_cfg()), words)
        assert cdg == earley_accepts(typed_brackets_cfg(), words)

    def test_nesting_structure_recovered(self):
        result = ParserSession(dyck_grammar(), engine="vector").parse(list("(())"))
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        heads = parses[0].heads(0)
        assert heads[1] == 4 and heads[2] == 3  # outer pair wraps inner

    def test_crossing_parse_excluded(self):
        # "()()" could in principle match 1->4, 2<-3 (crossing); the
        # no-crossing constraint leaves only the sequential matching.
        result = ParserSession(dyck_grammar(), engine="vector").parse(list("()()"))
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        heads = parses[0].heads(0)
        assert heads[1] == 2 and heads[3] == 4
