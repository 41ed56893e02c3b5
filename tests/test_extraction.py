"""Unit tests for parse extraction and precedence graphs."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro import (
    ConstraintNetwork,
    GrammarBuilder,
    SerialEngine,
    VectorEngine,
    accepts,
    count_parses,
    extract_parses,
)
from repro.errors import ExtractionError
from repro.search.extraction import iter_assignments


@pytest.fixture
def unconstrained():
    """A grammar with no constraints: every assignment is consistent."""
    return (
        GrammarBuilder("free")
        .labels("A", "B")
        .roles("g")
        .categories("n")
        .table("g", "A", "B")
        .word("w", "n")
        .build()
    )


class TestEnumeration:
    def test_unconstrained_counts(self, unconstrained):
        # One word: 2 labels x 1 modifiee (nil) = 2 assignments.
        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w"))
        assert count_parses(net) == 2

    def test_unconstrained_two_words(self, unconstrained):
        # Each of 2 roles has 2 labels x 2 modifiees = 4 values; 16 pairs.
        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w w"))
        assert count_parses(net, limit=100) == 16

    def test_limit_respected(self, unconstrained):
        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w w"))
        assert len(extract_parses(net, limit=5)) == 5

    def test_limit_none_returns_all(self, unconstrained):
        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w w"))
        assert len(extract_parses(net, limit=None)) == 16

    def test_bad_limit(self, unconstrained):
        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w"))
        with pytest.raises(ExtractionError):
            extract_parses(net, limit=0)

    def test_assignments_are_pairwise_consistent(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the program runs")
        net = result.network
        for indices in iter_assignments(net):
            for a in indices:
                for b in indices:
                    if net.role_index[a] != net.role_index[b]:
                        assert net.entry(a, b)

    def test_empty_domain_yields_nothing(self, unconstrained):
        import numpy as np

        net = ConstraintNetwork(unconstrained, unconstrained.tokenize("w"))
        net.kill(np.arange(net.nv))
        assert not accepts(net)
        assert extract_parses(net) == []


class TestAcceptance:
    def test_toy_sentence_accepted(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the program runs")
        assert accepts(result.network)

    def test_bad_sentence_rejected(self, toy_grammar):
        # "program the runs" violates the ordering constraints: the DET
        # needs a noun to its right, but the noun precedes it.
        result = VectorEngine().parse(toy_grammar, "program the runs")
        assert not result.locally_consistent
        assert not accepts(result.network)

    def test_two_determiners_rejected(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the the program runs")
        assert not accepts(result.network)

    def test_verb_only_accepted(self, toy_grammar):
        # "runs" needs an S modifiee but there is no other word; the needs
        # role value S-x requires mod != nil, impossible for n=1.
        result = VectorEngine().parse(toy_grammar, "runs")
        assert not result.locally_consistent

    def test_extraction_agrees_with_serial_engine(self, toy_grammar):
        serial = SerialEngine().parse(toy_grammar, "the program runs")
        vector = VectorEngine().parse(toy_grammar, "the program runs")
        p1 = [p.assignment for p in extract_parses(serial.network, limit=None)]
        p2 = [p.assignment for p in extract_parses(vector.network, limit=None)]
        assert sorted(p1) == sorted(p2)


class TestPrecedenceGraph:
    def test_mapping_round_trip(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the program runs")
        parse = extract_parses(result.network)[0]
        mapping = parse.mapping()
        assert parse.role_value(2, 0) is mapping[(2, 0)]

    def test_describe_mentions_all_words(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the program runs")
        parse = extract_parses(result.network)[0]
        text = parse.describe(toy_grammar.symbols)
        for word in ("the", "program", "runs"):
            assert word in text

    def test_networkx_nodes_carry_words(self, toy_grammar):
        result = VectorEngine().parse(toy_grammar, "the program runs")
        graph = extract_parses(result.network)[0].to_networkx(toy_grammar.symbols)
        assert graph.nodes[2]["word"] == "program"
        assert graph.number_of_nodes() == 3

    def test_import_repro_leaves_networkx_unloaded(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, repro; print('networkx' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
