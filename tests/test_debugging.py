"""Tests for the trace recorder and CoNLL export tooling."""

from __future__ import annotations

import pytest

from repro import ParserSession, extract_parses
from repro.debugging import TraceRecorder
from repro.grammar.builtin import english_grammar
from repro.search import to_conll


class TestTraceRecorder:
    @pytest.fixture
    def recorder(self, toy_grammar):
        recorder = TraceRecorder()
        ParserSession(toy_grammar, engine="vector").parse("The program runs", trace=recorder)
        return recorder

    def test_records_every_phase(self, recorder):
        events = [step.event for step in recorder.steps]
        assert events[0] == "built"
        assert "unary-done" in events
        assert events[-1] == "filtering-done"

    def test_timeline_is_monotone(self, recorder):
        counts = [alive for _, alive in recorder.timeline()]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 54 and counts[-1] == 6

    def test_step_lookup(self, recorder):
        step = recorder.step("unary-done")
        assert step.alive == 10
        with pytest.raises(KeyError):
            recorder.step("nope")

    def test_explain_names_eliminated_values(self, recorder):
        text = recorder.explain()
        assert "[unary:verbs-are-ungoverned-roots] eliminated 8:" in text
        assert "runs[3].governor" in text
        # The first binary constraint removes SUBJ-1 via consistency.
        assert "SUBJ-1" in text

    def test_explain_skips_quiet_phases_by_default(self, recorder):
        quiet = recorder.explain()
        loud = recorder.explain(skip_quiet=False)
        assert len(loud) >= len(quiet)
        assert "binary:subj-governed-by-root-to-right" not in quiet
        assert "binary:subj-governed-by-root-to-right" in loud

    def test_eliminations_diff(self, recorder):
        before = recorder.step("built").domains
        after = recorder.step("unary-done").domains
        gone = recorder.eliminations(before, after)
        assert gone[(3, "governor")] == frozenset(
            {"DET-nil", "DET-1", "DET-2", "SUBJ-nil", "SUBJ-1", "SUBJ-2", "ROOT-1", "ROOT-2"}
        )

    def test_works_with_serial_engine(self, toy_grammar):
        recorder = TraceRecorder()
        ParserSession(toy_grammar, engine="serial").parse("The program runs", trace=recorder)
        assert recorder.step("filtering-done").alive == 6


class TestConll:
    def test_toy_sentence(self, toy_grammar):
        result = ParserSession(toy_grammar, engine="vector").parse("The program runs")
        parse = extract_parses(result.network)[0]
        text = to_conll(parse, toy_grammar.symbols)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split("\t") == ["1", "The", "det", "2", "DET", "BLANK:0"]
        assert lines[1].split("\t") == ["2", "program", "noun", "3", "SUBJ", "NP:1"]
        assert lines[2].split("\t") == ["3", "runs", "verb", "0", "ROOT", "S:2"]

    def test_english_root_is_zero(self):
        grammar = english_grammar()
        result = ParserSession(grammar, engine="vector").parse("the dog sees the cat")
        parse = extract_parses(result.network)[0]
        rows = [line.split("\t") for line in to_conll(parse, grammar.symbols).splitlines()]
        roots = [row for row in rows if row[3] == "0"]
        assert len(roots) == 1
        assert roots[0][1] == "sees"

    def test_head_column_is_consistent_with_heads(self, toy_grammar):
        result = ParserSession(toy_grammar, engine="vector").parse("The program runs")
        parse = extract_parses(result.network)[0]
        rows = [line.split("\t") for line in to_conll(parse, toy_grammar.symbols).splitlines()]
        heads = parse.heads(0)
        for row in rows:
            assert int(row[3]) == heads[int(row[0])]
