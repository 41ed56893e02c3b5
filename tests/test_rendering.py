"""Tests for arc-matrix rendering (paper Figures 4 and 9)."""

from __future__ import annotations

import pytest

from repro import ParserSession
from repro.network import ConstraintNetwork, render_arc_matrix


@pytest.fixture
def settled(toy_grammar):
    recorder = {}

    def trace(event, net):
        if event == "binary:subj-governed-by-root-to-right":
            recorder["after-binary-1"] = net.clone()

    result = ParserSession(toy_grammar, engine="serial").parse("The program runs", trace=trace)
    return recorder["after-binary-1"], result.network


class TestRendering:
    def test_figure4_matrix(self, settled):
        after_binary_1, _ = settled
        text = render_arc_matrix(after_binary_1, 2, "governor", 3, "governor")
        lines = text.splitlines()
        assert "program[2].governor" in lines[0] and "runs[3].governor" in lines[0]
        # Rows SUBJ-1 / SUBJ-3 against column ROOT-nil: 0 then 1 (Figure 4).
        assert "ROOT-nil" in lines[1]
        subj1_row = next(line for line in lines if line.strip().startswith("SUBJ-1"))
        subj3_row = next(line for line in lines if line.strip().startswith("SUBJ-3"))
        assert subj1_row.strip().endswith("0")
        assert subj3_row.strip().endswith("1")

    def test_figure9_full_grid(self, toy_grammar):
        net = ConstraintNetwork(toy_grammar, toy_grammar.tokenize("The program runs"))
        text = render_arc_matrix(net, 3, "governor", 2, "governor", alive_only=False)
        lines = text.splitlines()
        # 9 rows x 9 columns, all ones before any propagation (Figure 9).
        assert len(lines) == 2 + 9
        for line in lines[2:]:
            cells = line.split()[1:]
            assert cells.count("1") == 9

    def test_alive_only_hides_dead_values(self, settled):
        _, final = settled
        text = render_arc_matrix(final, 2, "governor", 3, "governor")
        assert "SUBJ-1" not in text
        assert "SUBJ-3" in text

    def test_symmetric_views_agree(self, settled):
        _, final = settled
        ab = render_arc_matrix(final, 2, "governor", 3, "needs")
        ba = render_arc_matrix(final, 3, "needs", 2, "governor")
        # Transposed views: same single surviving entry.
        assert ab.splitlines()[-1].strip().endswith("1")
        assert ba.splitlines()[-1].strip().endswith("1")
