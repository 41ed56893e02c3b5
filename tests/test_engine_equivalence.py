"""All four engines must settle every network to the same state.

This is the reproduction's central invariant (DESIGN.md): the serial
reference, the numpy vector engine, the CRCW P-RAM programs and the
simulated-MasPar PARSEC all compute the greatest locally-consistent
subnetwork, bit for bit — alive vectors and packed arc matrices equal.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MasParEngine, MeshEngine, ParserSession, PRAMEngine, SerialEngine, VectorEngine
from repro.grammar.builtin import program_grammar
from repro.grammar.builtin.english import english_grammar
from repro.workloads import random_sentence, scrambled_sentence

ALL_ENGINES = [SerialEngine(), VectorEngine(), PRAMEngine(), MasParEngine(), MeshEngine()]
FAST_ENGINES = [SerialEngine(), VectorEngine(), MasParEngine(), MeshEngine()]


def assert_same_outcome(grammar, sentence, engines):
    reference = ParserSession(grammar, engine="vector").parse(sentence)
    for engine in engines:
        result = ParserSession(grammar, engine=engine).parse(sentence)
        np.testing.assert_array_equal(
            result.network.alive,
            reference.network.alive,
            err_msg=f"{engine.name} alive differs on {sentence!r}",
        )
        np.testing.assert_array_equal(
            result.network.matrix,
            reference.network.matrix,
            err_msg=f"{engine.name} matrix differs on {sentence!r}",
        )
        assert result.locally_consistent == reference.locally_consistent
        assert result.ambiguous == reference.ambiguous


class TestToyGrammar:
    @pytest.mark.parametrize(
        "sentence",
        [
            "The program runs",
            "a program runs",
            "program runs",
            "runs",
            "the program",
            "program the runs",
            "the the program runs",
        ],
    )
    def test_all_engines_agree(self, sentence):
        assert_same_outcome(program_grammar(), sentence, ALL_ENGINES)


class TestEnglishGrammar:
    @pytest.mark.parametrize(
        "sentence",
        [
            "the dog runs",
            "dogs bark",
            "the dog sees the cat",
            "the saw runs",
            "dog the runs",
            "the dog runs in the park",
        ],
    )
    def test_fast_engines_agree(self, sentence):
        assert_same_outcome(english_grammar(), sentence, FAST_ENGINES)

    def test_pram_agrees_on_short_english(self):
        assert_same_outcome(english_grammar(), "the dog runs", [PRAMEngine()])


class TestPropertyBased:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_grammatical_sentences(self, seed):
        rng = random.Random(seed)
        sentence = random_sentence(rng, max_pps=1, max_adjs=1)
        assert_same_outcome(english_grammar(), sentence, FAST_ENGINES)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_scrambled_sentences(self, seed):
        rng = random.Random(seed)
        sentence = scrambled_sentence(rng, max_pps=1, max_adjs=0)
        assert_same_outcome(english_grammar(), sentence, FAST_ENGINES)


class TestFilterLimit:
    def test_bounded_filtering_is_a_prefix_of_full(self):
        """Design decision 5: limiting filtering only leaves extra values."""
        grammar = english_grammar()
        full = ParserSession(grammar, engine="vector").parse("the dog sees the cat")
        bounded = ParserSession(grammar, engine="maspar").parse(
            "the dog sees the cat", filter_limit=0
        )
        # Bounded filtering can only keep MORE alive values, never fewer.
        assert (full.network.alive <= bounded.network.alive).all()

    def test_trace_events_match_between_engines(self):
        events: dict[str, list[str]] = {}
        for engine in (SerialEngine(), VectorEngine(), MasParEngine()):
            seen: list[str] = []
            ParserSession(program_grammar(), engine=engine).parse(
                "The program runs", trace=lambda e, n: seen.append(e)
            )
            events[engine.name] = [e for e in seen if e != "built"]
        assert events["serial"] == events["vector"]
        # The maspar engine emits the same phase events.
        assert events["serial"] == events["maspar"]
