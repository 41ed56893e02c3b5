"""Exact reproduction of the paper's worked example (Figures 1-7).

The trace hook captures the constraint network after each propagation
phase; the domain sets are asserted against the figures verbatim.
Both the serial and the vector engine must reproduce every state.
"""

from __future__ import annotations

import pytest

from repro import ParserSession, extract_parses
from repro.network.network import ConstraintNetwork

from tests.conftest import domains_snapshot, find_rv

SENTENCE = "The program runs"

# Figure 1: the initial CN.  Domains are exhaustive over T and "no word
# ever modifies itself".
FIG1 = {
    (1, "governor"): {
        "DET-nil", "DET-2", "DET-3",
        "SUBJ-nil", "SUBJ-2", "SUBJ-3",
        "ROOT-nil", "ROOT-2", "ROOT-3",
    },
    (1, "needs"): {
        "BLANK-nil", "BLANK-2", "BLANK-3",
        "NP-nil", "NP-2", "NP-3",
        "S-nil", "S-2", "S-3",
    },
    (2, "governor"): {
        "DET-nil", "DET-1", "DET-3",
        "SUBJ-nil", "SUBJ-1", "SUBJ-3",
        "ROOT-nil", "ROOT-1", "ROOT-3",
    },
    (2, "needs"): {
        "BLANK-nil", "BLANK-1", "BLANK-3",
        "NP-nil", "NP-1", "NP-3",
        "S-nil", "S-1", "S-3",
    },
    (3, "governor"): {
        "DET-nil", "DET-1", "DET-2",
        "SUBJ-nil", "SUBJ-1", "SUBJ-2",
        "ROOT-nil", "ROOT-1", "ROOT-2",
    },
    (3, "needs"): {
        "BLANK-nil", "BLANK-1", "BLANK-2",
        "NP-nil", "NP-1", "NP-2",
        "S-nil", "S-1", "S-2",
    },
}

# Figure 3: after all unary constraints.
FIG3 = {
    (1, "governor"): {"DET-2", "DET-3"},
    (1, "needs"): {"BLANK-nil"},
    (2, "governor"): {"SUBJ-1", "SUBJ-3"},
    (2, "needs"): {"NP-1", "NP-3"},
    (3, "governor"): {"ROOT-nil"},
    (3, "needs"): {"S-1", "S-2"},
}

# Figure 5: after the first binary constraint and consistency maintenance.
FIG5 = {
    (1, "governor"): {"DET-2", "DET-3"},
    (1, "needs"): {"BLANK-nil"},
    (2, "governor"): {"SUBJ-3"},
    (2, "needs"): {"NP-1", "NP-3"},
    (3, "governor"): {"ROOT-nil"},
    (3, "needs"): {"S-1", "S-2"},
}

# Figure 6: the final CN.
FIG6 = {
    (1, "governor"): {"DET-2"},
    (1, "needs"): {"BLANK-nil"},
    (2, "governor"): {"SUBJ-3"},
    (2, "needs"): {"NP-1"},
    (3, "governor"): {"ROOT-nil"},
    (3, "needs"): {"S-2"},
}


class Recorder:
    def __init__(self):
        self.snapshots: dict[str, dict] = {}
        self.networks: dict[str, ConstraintNetwork] = {}

    def __call__(self, event: str, net: ConstraintNetwork) -> None:
        self.snapshots[event] = domains_snapshot(net)
        self.networks[event] = net.clone()


@pytest.fixture
def traced(toy_grammar, engine):
    recorder = Recorder()
    result = ParserSession(toy_grammar, engine=engine).parse(SENTENCE, trace=recorder)
    return recorder, result


class TestFigures:
    def test_figure1_initial_domains(self, traced):
        recorder, _ = traced
        assert recorder.snapshots["built"] == {k: frozenset(v) for k, v in FIG1.items()}

    def test_figure1_role_value_counts(self, traced):
        recorder, _ = traced
        net = recorder.networks["built"]
        # 9 role values per role, 6 roles: O(p * n) each, 54 total.
        assert net.nv == 54
        assert all(net.domain_size(r) == 9 for r in range(net.n_roles))

    def test_figure2_first_unary_constraint(self, traced):
        recorder, _ = traced
        snap = recorder.snapshots["unary:verbs-are-ungoverned-roots"]
        # "the label ROOT-nil is the only remaining label for the governor
        # role of runs"; everything else is untouched so far.
        assert snap[(3, "governor")] == {"ROOT-nil"}
        for key, expected in FIG1.items():
            if key != (3, "governor"):
                assert snap[key] == frozenset(expected), key

    def test_figure3_after_all_unary(self, traced):
        recorder, _ = traced
        assert recorder.snapshots["unary-done"] == {
            k: frozenset(v) for k, v in FIG3.items()
        }

    def test_figure4_first_binary_zeroes_subj1_root(self, traced):
        recorder, _ = traced
        net = recorder.networks["binary:subj-governed-by-root-to-right"]
        subj1 = find_rv(net, 2, "governor", "SUBJ-1")
        subj3 = find_rv(net, 2, "governor", "SUBJ-3")
        root = find_rv(net, 3, "governor", "ROOT-nil")
        assert not net.entry(subj1, root), "Figure 4: SUBJ-1 x ROOT-nil must be 0"
        assert net.entry(subj3, root), "Figure 4: SUBJ-3 x ROOT-nil must stay 1"
        # The other arc matrices shown in Figure 4 are still all ones.
        det2 = find_rv(net, 1, "governor", "DET-2")
        det3 = find_rv(net, 1, "governor", "DET-3")
        np1 = find_rv(net, 2, "needs", "NP-1")
        np3 = find_rv(net, 2, "needs", "NP-3")
        s1 = find_rv(net, 3, "needs", "S-1")
        s2 = find_rv(net, 3, "needs", "S-2")
        for a in (np1, np3):
            for b in (det2, det3):
                assert net.entry(a, b)
        for a in (s1, s2):
            for b in (det2, det3):
                assert net.entry(a, b)
        for a in (s1, s2):
            for b in (subj1, subj3):
                assert net.entry(a, b)

    def test_figure5_consistency_removes_subj1(self, traced):
        recorder, _ = traced
        snap = recorder.snapshots["consistency:subj-governed-by-root-to-right"]
        assert snap == {k: frozenset(v) for k, v in FIG5.items()}

    def test_figure6_final_network(self, traced):
        recorder, result = traced
        assert domains_snapshot(result.network) == {
            k: frozenset(v) for k, v in FIG6.items()
        }
        assert result.locally_consistent
        assert not result.ambiguous

    def test_figure6_surviving_matrix_entries(self, traced):
        _, result = traced
        net = result.network
        np1 = find_rv(net, 2, "needs", "NP-1")
        det2 = find_rv(net, 1, "governor", "DET-2")
        subj3 = find_rv(net, 2, "governor", "SUBJ-3")
        s2 = find_rv(net, 3, "needs", "S-2")
        assert net.entry(np1, det2)
        assert net.entry(s2, subj3)

    def test_figure7_precedence_graph(self, traced, toy_grammar):
        _, result = traced
        parses = extract_parses(result.network)
        assert len(parses) == 1
        assignment = parses[0].pretty_assignment(toy_grammar.symbols)
        assert assignment == {
            (1, "governor"): "DET-2",
            (1, "needs"): "BLANK-nil",
            (2, "governor"): "SUBJ-3",
            (2, "needs"): "NP-1",
            (3, "governor"): "ROOT-nil",
            (3, "needs"): "S-2",
        }

    def test_figure7_graph_edges(self, traced, toy_grammar):
        _, result = traced
        graph = extract_parses(result.network)[0].to_networkx(toy_grammar.symbols)
        # The -> program (DET), program -> runs (SUBJ), runs -> program (S),
        # program -> The (NP); ROOT-nil and BLANK-nil contribute no edge.
        edges = {(u, v, data["label"]) for u, v, data in graph.edges(data=True)}
        assert edges == {
            (1, 2, "DET"),
            (2, 3, "SUBJ"),
            (3, 2, "S"),
            (2, 1, "NP"),
        }

    def test_heads_vector(self, traced, toy_grammar):
        _, result = traced
        parse = extract_parses(result.network)[0]
        governor = toy_grammar.symbols.roles.code("governor")
        assert parse.heads(governor) == {1: 2, 2: 3, 3: 0}


class TestArcCounts:
    def test_number_of_arcs_matches_paper(self, traced):
        """(q*n choose 2) = 15 arcs for q=2, n=3."""
        recorder, _ = traced
        net = recorder.networks["built"]
        n_roles = net.n_roles
        assert n_roles == 6
        assert n_roles * (n_roles - 1) // 2 == 15

    def test_initial_matrices_all_ones_across_roles(self, traced):
        recorder, _ = traced
        net = recorder.networks["built"]
        block = net.arc_matrix(net.role_of(1, "governor"), net.role_of(2, "needs"))
        assert block.all()
        assert block.shape == (9, 9)
