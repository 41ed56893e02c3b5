"""MICRO — engine microbenchmarks (pytest-benchmark timings).

Wall-clock cost of each engine on fixed workloads, for regression
tracking.  These are this-host numbers; the paper-facing measurements
live in the RES-* and FIG8 benches.
"""

from __future__ import annotations

import pytest

from repro import ParserSession, PRAMEngine, SerialEngine, VectorEngine
from repro.grammar.builtin import program_grammar
from repro.grammar.builtin.english import english_grammar
from repro.network import ConstraintNetwork
from repro.parsec import MasParEngine
from repro.search import extract_parses
from repro.workloads import sentence_of_length


@pytest.mark.benchmark(group="micro-toy")
@pytest.mark.parametrize(
    "engine",
    [SerialEngine(), VectorEngine(), MasParEngine(), PRAMEngine()],
    ids=["serial", "vector", "maspar", "pram"],
)
def test_parse_toy_sentence(benchmark, engine):
    grammar = program_grammar()
    benchmark.pedantic(
        lambda: ParserSession(grammar, engine=engine).parse("The program runs"),
        rounds=3,
        iterations=1,
    )


@pytest.mark.benchmark(group="micro-english")
@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize(
    "engine",
    [SerialEngine(), VectorEngine(), MasParEngine()],
    ids=["serial", "vector", "maspar"],
)
def test_parse_english_sentence(benchmark, engine, n):
    grammar = english_grammar()
    words = sentence_of_length(n)
    benchmark.pedantic(
        lambda: ParserSession(grammar, engine=engine).parse(words), rounds=3, iterations=1
    )


@pytest.mark.benchmark(group="micro-session")
@pytest.mark.parametrize("n", [5, 10])
def test_parse_english_warm_session(benchmark, n):
    """The amortized path: templates and masks cached across calls."""
    session = ParserSession(english_grammar(), engine="vector")
    words = sentence_of_length(n)
    session.parse(words)  # warm the template cache
    benchmark.pedantic(lambda: session.parse(words), rounds=3, iterations=10)


@pytest.mark.benchmark(group="micro-components")
def test_network_construction(benchmark):
    grammar = english_grammar()
    sentence = grammar.tokenize(sentence_of_length(12))
    benchmark(ConstraintNetwork, grammar, sentence)


@pytest.mark.benchmark(group="micro-components")
def test_extraction(benchmark):
    grammar = english_grammar()
    result = ParserSession(grammar, engine="vector").parse(sentence_of_length(11))
    benchmark(lambda: extract_parses(result.network, limit=None))


@pytest.mark.benchmark(group="micro-components")
def test_tokenize(benchmark):
    grammar = english_grammar()
    words = sentence_of_length(14)
    benchmark(grammar.tokenize, words)
