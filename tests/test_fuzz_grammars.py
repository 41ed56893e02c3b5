"""Fuzzing: engine equivalence and invariants over random grammars.

Random grammars x random sentences exercise corners no hand-written
grammar reaches (one-role grammars, three-role grammars, vacuous or
contradictory constraints, ambiguous lexicons).  Invariants checked:

* all engines settle to identical networks;
* the loader round-trips every generated grammar;
* extraction only ever returns pairwise-consistent assignments;
* bounded filtering keeps a superset of the fixpoint.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParserSession
from repro.grammar import dump_grammar, load_grammar
from repro.search import extract_parses, iter_assignments
from repro.workloads.random_grammars import random_grammar, random_sentence_for


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_engines_agree_on_random_grammars(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    sentence = random_sentence_for(grammar, rng, max_len=4)
    reference = ParserSession(grammar, engine="vector").parse(sentence)
    for engine in ("serial", "maspar", "mesh"):
        result = ParserSession(grammar, engine=engine).parse(sentence)
        np.testing.assert_array_equal(
            result.network.alive,
            reference.network.alive,
            err_msg=f"{engine} differs: grammar seed {seed}, sentence {sentence}",
        )
        np.testing.assert_array_equal(result.network.matrix, reference.network.matrix)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pram_agrees_on_random_grammars(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    sentence = random_sentence_for(grammar, rng, max_len=3)
    reference = ParserSession(grammar, engine="vector").parse(sentence)
    result = ParserSession(grammar, engine="pram").parse(sentence)
    np.testing.assert_array_equal(result.network.alive, reference.network.alive)
    np.testing.assert_array_equal(result.network.matrix, reference.network.matrix)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_loader_round_trips_random_grammars(seed):
    grammar = random_grammar(random.Random(seed))
    text = dump_grammar(grammar)
    again = load_grammar(text)
    assert again.labels == grammar.labels
    assert again.roles == grammar.roles
    assert again.categories == grammar.categories
    assert [c.source for c in again.constraints] == [c.source for c in grammar.constraints]
    assert dump_grammar(again) == text


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_extracted_assignments_are_consistent(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    sentence = random_sentence_for(grammar, rng, max_len=4)
    network = ParserSession(grammar, engine="vector").parse(sentence).network
    count = 0
    for indices in iter_assignments(network):
        for a in indices:
            assert network.alive[a]
            for b in indices:
                if network.role_index[a] != network.role_index[b]:
                    assert network.entry(a, b)
        count += 1
        if count >= 5:
            break


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bounded_filtering_overapproximates(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    sentence = random_sentence_for(grammar, rng, max_len=4)
    full = ParserSession(grammar, engine="vector").parse(sentence)
    bounded = ParserSession(grammar, engine="vector").parse(sentence, filter_limit=0)
    assert (full.network.alive <= bounded.network.alive).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_acceptance_implies_nonempty_domains(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    sentence = random_sentence_for(grammar, rng, max_len=4)
    result = ParserSession(grammar, engine="vector").parse(sentence)
    parses = extract_parses(result.network, limit=1)
    if parses:
        assert result.locally_consistent
