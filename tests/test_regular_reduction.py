"""The DFA -> CDG compiler accepts exactly the DFA's language.

This realizes the regular case of Maruyama's generative-capacity claim
concretely: every regular language has a CDG grammar with two roles and
binary constraints, produced mechanically from its automaton.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParserSession, accepts, extract_parses
from repro.errors import ReproError
from repro.reductions import DFA, dfa_to_cdg


def even_as() -> DFA:
    return DFA(
        states=2,
        alphabet=("a", "b"),
        delta={(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1},
        accepting=frozenset({0}),
    )


def ends_in_ab() -> DFA:
    return DFA(
        states=3,
        alphabet=("a", "b"),
        delta={
            (0, "a"): 1, (0, "b"): 0,
            (1, "a"): 1, (1, "b"): 2,
            (2, "a"): 1, (2, "b"): 0,
        },
        accepting=frozenset({2}),
    )


def random_dfa(rng: random.Random) -> DFA:
    n_states = rng.randint(1, 4)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    delta = {
        (q, s): rng.randrange(n_states) for q in range(n_states) for s in alphabet
    }
    accepting = frozenset(q for q in range(n_states) if rng.random() < 0.5)
    return DFA(n_states, alphabet, delta, accepting)


class TestDFA:
    def test_simulation(self):
        dfa = even_as()
        assert dfa.accepts([])
        assert dfa.accepts(list("aa"))
        assert not dfa.accepts(list("ab"))
        assert dfa.accepts(list("abab"))

    def test_unknown_symbol_rejected(self):
        assert not even_as().accepts(["z"])

    def test_validation(self):
        with pytest.raises(ReproError, match="not total"):
            DFA(2, ("a",), {(0, "a"): 1}, frozenset())
        with pytest.raises(ReproError, match="out of range"):
            DFA(1, ("a",), {(0, "a"): 3}, frozenset())
        with pytest.raises(ReproError, match="accepting"):
            DFA(1, ("a",), {(0, "a"): 0}, frozenset({5}))
        with pytest.raises(ReproError, match="at least one state"):
            DFA(0, ("a",), {}, frozenset())


class TestCompiledGrammars:
    @pytest.mark.parametrize("factory", [even_as, ends_in_ab], ids=["even-a", "ends-ab"])
    def test_exhaustive_agreement(self, factory):
        dfa = factory()
        grammar = dfa_to_cdg(dfa)
        for n in range(1, 6):
            for s in itertools.product(dfa.alphabet, repeat=n):
                words = list(s)
                result = ParserSession(grammar, engine="vector").parse(words)
                assert accepts(result.network) == dfa.accepts(words), words

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), word_seed=st.integers(0, 10**6))
    def test_random_dfas_agree(self, seed, word_seed):
        dfa = random_dfa(random.Random(seed))
        grammar = dfa_to_cdg(dfa)
        rng = random.Random(word_seed)
        for _ in range(8):
            words = [rng.choice(dfa.alphabet) for _ in range(rng.randint(1, 6))]
            result = ParserSession(grammar, engine="vector").parse(words)
            assert accepts(result.network) == dfa.accepts(words), words

    def test_no_accepting_states_rejects_everything(self):
        dfa = DFA(1, ("a",), {(0, "a"): 0}, frozenset())
        grammar = dfa_to_cdg(dfa)
        for n in (1, 2, 3):
            assert not accepts(ParserSession(grammar, engine="vector").parse(["a"] * n).network)

    def test_single_word(self):
        grammar = dfa_to_cdg(ends_in_ab())
        assert not accepts(ParserSession(grammar, engine="vector").parse(["a"]).network)
        assert not accepts(ParserSession(grammar, engine="vector").parse(["b"]).network)

    def test_parse_exhibits_the_run(self):
        """The surviving labels spell out the DFA's state sequence."""
        dfa = ends_in_ab()
        grammar = dfa_to_cdg(dfa)
        result = ParserSession(grammar, engine="vector").parse(list("aab"))
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        mapping = parses[0].pretty_assignment(grammar.symbols)
        # run: 0 -a-> 1 -a-> 1 -b-> 2(accept)
        assert mapping[(1, "governor")] == "NEXT1-2"
        assert mapping[(2, "governor")] == "NEXT1-3"
        assert mapping[(3, "governor")] == "END2-nil"

    def test_chain_is_forced(self):
        """Hall's condition: the pointers must form the successor chain."""
        grammar = dfa_to_cdg(even_as())
        result = ParserSession(grammar, engine="vector").parse(list("abab"))
        for parse in extract_parses(result.network, limit=None):
            heads = parse.heads(0)
            for pos in range(1, 4):
                assert heads[pos] == pos + 1
            assert heads[4] == 0

    def test_constraint_count_is_linear_in_table(self):
        dfa = ends_in_ab()
        grammar = dfa_to_cdg(dfa)
        # 5 structural + |Sigma| initial + |Q| * |Sigma| transitions.
        assert grammar.k == 5 + 2 + 3 * 2
