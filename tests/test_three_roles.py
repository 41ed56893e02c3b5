"""Three roles per word (q = 3): the a^n b^n c^n d^n grammar.

The paper only ever uses two roles; these tests exercise the whole
stack — network construction, every engine, and the MasPar PE layout —
at q = 3, where the processor count becomes q^2 n^4 = 9 n^4.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConstraintNetwork, ParserSession, accepts, extract_parses
from repro.grammar.builtin import abcd_grammar, abcd_oracle
from repro.parsec import build_layout


def cdg_accepts(words) -> bool:
    return accepts(ParserSession(abcd_grammar(), engine="vector").parse(list(words)).network)


class TestLanguage:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_accepts_members(self, n):
        assert cdg_accepts(["a"] * n + ["b"] * n + ["c"] * n + ["d"] * n)

    @pytest.mark.parametrize(
        "text",
        ["a", "abcd" * 2, "abdc", "aabbccd", "abc", "aabcd", "dcba", "aabbbccdd"],
    )
    def test_rejects_non_members(self, text):
        # NB: "abcdabcd" (= "abcd"*2) interleaves the blocks, so it is out.
        assert not cdg_accepts(list(text))

    def test_exhaustive_up_to_length_4(self):
        for n in range(1, 5):
            for s in itertools.product("abcd", repeat=n):
                assert cdg_accepts(s) == abcd_oracle(list(s)), s

    @settings(max_examples=30, deadline=None)
    @given(words=st.lists(st.sampled_from(list("abcd")), min_size=1, max_size=8))
    def test_matches_oracle(self, words):
        assert cdg_accepts(words) == abcd_oracle(words)

    def test_parse_structure(self):
        result = ParserSession(abcd_grammar(), engine="vector").parse(list("abcd"))
        parses = extract_parses(result.network, limit=None)
        assert len(parses) == 1
        mapping = parses[0].pretty_assignment(abcd_grammar().symbols)
        assert mapping[(1, "governor")] == "MB-2"
        assert mapping[(1, "needs")] == "MC-3"
        assert mapping[(1, "extra")] == "MD-4"
        assert mapping[(4, "needs")] == "BD-1"


class TestThreeRoleMachinery:
    def test_network_has_three_roles_per_word(self):
        grammar = abcd_grammar()
        net = ConstraintNetwork(grammar, grammar.tokenize(list("abcd")))
        assert net.n_roles_per_word == 3
        assert net.n_roles == 12

    def test_maspar_layout_is_9n4(self):
        grammar = abcd_grammar()
        net = ConstraintNetwork(grammar, grammar.tokenize(list("abcd")))
        layout = build_layout(net)
        assert layout.n_pes == 9 * 4**4

    def test_all_engines_agree_at_q3(self):
        grammar = abcd_grammar()
        rng = random.Random(7)
        cases = [list("aabbccdd"), list("abcd"), list("abdc")]
        cases += [[rng.choice("abcd") for _ in range(6)] for _ in range(3)]
        for words in cases:
            reference = ParserSession(grammar, engine="vector").parse(words)
            for engine in ("serial", "maspar", "mesh"):
                result = ParserSession(grammar, engine=engine).parse(words)
                np.testing.assert_array_equal(
                    result.network.alive,
                    reference.network.alive,
                    err_msg=f"{engine} differs on {''.join(words)}",
                )
                np.testing.assert_array_equal(
                    result.network.matrix, reference.network.matrix
                )

    def test_pram_at_q3(self):
        grammar = abcd_grammar()
        words = list("abcd")
        result = ParserSession(grammar, engine="pram").parse(words)
        reference = ParserSession(grammar, engine="vector").parse(words)
        np.testing.assert_array_equal(result.network.alive, reference.network.alive)
