"""Unit + property tests for the CFG substrate (Figure-8 baselines)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GrammarError
from repro.cfg import (
    CFG,
    anbn_cfg,
    balanced_brackets_cfg,
    cyk_accepts,
    cyk_parse,
    earley_accepts,
    english_cfg,
    mesh_cyk,
    palindrome_cfg,
    random_corpus,
    random_derivation,
    to_cnf,
    typed_brackets_cfg,
)
from repro.workloads import sentence_of_length


class TestCFGBasics:
    def test_terminals_and_nonterminals(self):
        grammar = CFG("S", [("S", ("a", "S")), ("S", ("b",))])
        assert grammar.nonterminals == {"S"}
        assert grammar.terminals == {"a", "b"}

    def test_size_counts_rhs_symbols(self):
        grammar = CFG("S", [("S", ("a", "S")), ("S", ())])
        assert grammar.size == 3  # 2 + 1 (epsilon counts as 1)

    def test_unknown_start_rejected(self):
        with pytest.raises(GrammarError, match="start"):
            CFG("X", [("S", ("a",))])

    def test_empty_grammar_rejected(self):
        with pytest.raises(GrammarError):
            CFG("S", [])

    def test_nullable(self):
        grammar = CFG("S", [("S", ("A", "B")), ("A", ()), ("B", ("b",)), ("B", ("A",))])
        assert grammar.nullable() == {"A", "B", "S"}

    def test_is_cnf(self):
        assert CFG("S", [("S", ("A", "B")), ("A", ("a",)), ("B", ("b",))]).is_cnf()
        assert not CFG("S", [("S", ("a", "b"))]).is_cnf()


class TestCNF:
    def test_anbn_round_trip(self):
        cnf = to_cnf(anbn_cfg())
        assert cnf.is_cnf()
        assert cyk_accepts(cnf, ["a", "b"])
        assert cyk_accepts(cnf, ["a", "a", "b", "b"])
        assert not cyk_accepts(cnf, ["a", "b", "b"])

    def test_epsilon_language_preserved(self):
        cnf = to_cnf(balanced_brackets_cfg())
        assert cyk_accepts(cnf, [])
        assert cyk_accepts(cnf, list("()"))
        assert cyk_accepts(cnf, list("(()())"))
        assert not cyk_accepts(cnf, list(")("))

    def test_unit_chains_removed(self):
        grammar = CFG("S", [("S", ("A",)), ("A", ("B",)), ("B", ("b",))])
        cnf = to_cnf(grammar)
        assert cyk_accepts(cnf, ["b"])
        assert not cyk_accepts(cnf, ["a"])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_cnf_equals_earley_on_random_sentences(self, seed):
        """CNF+CYK must agree with Earley-on-the-original everywhere."""
        rng = random.Random(seed)
        grammar = english_cfg()
        cnf = to_cnf(grammar)
        words = random_derivation(grammar, rng, max_symbols=10)
        assert cyk_accepts(cnf, words)
        assert earley_accepts(grammar, words)
        rng.shuffle(words)
        assert cyk_accepts(cnf, words) == earley_accepts(grammar, words)


class TestCYK:
    def test_requires_cnf(self):
        with pytest.raises(GrammarError, match="CNF"):
            cyk_parse(anbn_cfg(), ["a", "b"])

    def test_chart_spans(self):
        cnf = to_cnf(anbn_cfg())
        result = cyk_parse(cnf, ["a", "a", "b", "b"])
        assert result.accepted
        # The inner span (a b) derives from the original S.
        inner = result.chart_sets[1][2]
        assert any("S" in nt or nt.startswith("_") for nt in inner)

    def test_operation_count_is_cubic_ish(self):
        cnf = to_cnf(english_cfg())
        ops = [cyk_parse(cnf, sentence_of_length(n)).split_operations for n in (4, 8)]
        # Doubling n should multiply the work by about 2^3.
        assert 4 < ops[1] / ops[0] < 16

    def test_empty_sentence(self):
        cnf = to_cnf(balanced_brackets_cfg())
        assert cyk_parse(cnf, []).accepted


class TestCYKPackedVsSetOracle:
    """Seeded sweep: CYK, Earley on the original grammar, and the mesh
    automaton agree on every builtin CFG — on derived positives and on
    their shuffled copies, which are mostly rejections.  Earley never
    sees the CNF, so the sweep checks ``to_cnf`` too; the mesh performs
    CYK's (length, split, rule) steps in wavefronts, so the two
    operation counts are equal.

    The class keeps the name of the packed-vs-set chart comparison it
    replaced."""

    GRAMMARS = {
        "anbn": anbn_cfg,
        "brackets": balanced_brackets_cfg,
        "typed": typed_brackets_cfg,
        "palindrome": palindrome_cfg,
        "english": english_cfg,
    }

    @pytest.mark.parametrize("name", sorted(GRAMMARS))
    def test_sweep_matches_oracle(self, name):
        grammar = self.GRAMMARS[name]()
        cnf = to_cnf(grammar)
        rng = random.Random(name)
        cases: list[list[str]] = [[]]
        for words in random_corpus(grammar, seed=13, size=6, max_symbols=14):
            shuffled = list(words)
            rng.shuffle(shuffled)
            cases += [list(words), shuffled]
        for sentence in cases:
            cyk = cyk_parse(cnf, sentence)
            mesh = mesh_cyk(cnf, sentence)
            assert cyk.accepted == earley_accepts(grammar, sentence) == mesh.accepted, sentence
            assert mesh.cell_operations == cyk.split_operations, sentence


class TestEarley:
    def test_accepts_with_epsilon_rules(self):
        grammar = balanced_brackets_cfg()
        assert earley_accepts(grammar, [])
        assert earley_accepts(grammar, list("()()"))
        assert not earley_accepts(grammar, list("(("))

    def test_nullable_prediction(self):
        # A -> ε in the middle of a rule (Aycock-Horspool case).
        grammar = CFG("S", [("S", ("A", "b")), ("A", ())])
        assert earley_accepts(grammar, ["b"])

    def test_english_sentences(self):
        grammar = english_cfg()
        assert earley_accepts(grammar, "the dog sees the cat".split())
        assert not earley_accepts(grammar, "dog the sees".split())


class TestMeshCYK:
    def test_agrees_with_sequential_cyk(self):
        cnf = to_cnf(english_cfg())
        for n in (2, 3, 5, 8):
            words = sentence_of_length(n)
            assert mesh_cyk(cnf, words).accepted == cyk_accepts(cnf, words)

    def test_rejections_agree_too(self):
        cnf = to_cnf(english_cfg())
        words = "dog the sees cat the".split()
        assert mesh_cyk(cnf, words).accepted == cyk_accepts(cnf, words) == False

    def test_linear_wavefront_steps(self):
        cnf = to_cnf(english_cfg())
        for n in (3, 6, 12):
            assert mesh_cyk(cnf, sentence_of_length(n)).wavefront_steps == n - 1

    def test_quadratic_cells(self):
        cnf = to_cnf(english_cfg())
        result = mesh_cyk(cnf, sentence_of_length(8))
        assert result.cells == 8 * 9 // 2

    @settings(max_examples=25, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8))
    def test_property_matches_cyk_on_anbn(self, words):
        cnf = to_cnf(anbn_cfg())
        assert mesh_cyk(cnf, words).accepted == cyk_accepts(cnf, words)


class TestGenerator:
    def test_derivations_are_in_the_language(self):
        grammar = english_cfg()
        for words in random_corpus(grammar, seed=3, size=10, max_symbols=12):
            assert earley_accepts(grammar, words)

    def test_deterministic_with_seed(self):
        a = random_corpus(english_cfg(), seed=11, size=5)
        b = random_corpus(english_cfg(), seed=11, size=5)
        assert a == b

    def test_budget_error(self):
        # A grammar with no terminating derivation must raise, not spin.
        grammar = CFG("S", [("S", ("S", "S")), ("S", ("S",))])
        with pytest.raises(GrammarError, match="derivation"):
            random_derivation(grammar, random.Random(0), max_symbols=5, max_attempts=3)
