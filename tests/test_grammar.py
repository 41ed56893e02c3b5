"""Unit tests for grammar construction, loading and validation."""

from __future__ import annotations

import pytest

from repro import GrammarBuilder
from repro.errors import GrammarError, LexiconError
from repro.grammar import dump_grammar, load_grammar
from repro.grammar.builtin import program_grammar

MINI_GRAMMAR = """
(grammar mini
  (labels SUBJ ROOT)
  (roles governor)
  (categories noun verb)
  (table (governor SUBJ ROOT))
  (lexicon (dogs noun) (bark verb noun))
  (constraint verbs-are-roots
    (if (and (eq (cat (word (pos x))) verb)
             (eq (role x) governor))
        (and (eq (lab x) ROOT) (eq (mod x) nil)))))
"""


class TestBuilder:
    def test_basic_build(self):
        grammar = (
            GrammarBuilder("t")
            .labels("A", "B")
            .roles("governor")
            .categories("noun")
            .table("governor", "A", "B")
            .word("dog", "noun")
            .constraint("c1", "(if (eq (lab x) A) (eq (mod x) nil))")
            .build()
        )
        assert grammar.n_labels == 2
        assert grammar.n_roles == 1
        assert grammar.k == 1

    def test_duplicate_constraint_name_rejected(self):
        builder = (
            GrammarBuilder("t").labels("A").roles("g").categories("n").word("w", "n")
        )
        builder.constraint("c", "(if (eq (lab x) A) (eq (mod x) nil))")
        with pytest.raises(GrammarError, match="duplicate"):
            builder.constraint("c", "(if (eq (lab x) A) (eq (mod x) nil))")

    def test_empty_lexicon_rejected(self):
        builder = GrammarBuilder("t").labels("A").roles("g").categories("n")
        with pytest.raises(GrammarError, match="lexicon is empty"):
            builder.build()

    def test_table_accumulates(self):
        grammar = (
            GrammarBuilder("t")
            .labels("A", "B")
            .roles("g")
            .categories("n")
            .table("g", "A")
            .table("g", "B")
            .word("w", "n")
            .build()
        )
        assert grammar.allowed_labels(0) == frozenset({0, 1})

    def test_lexical_table_refines(self):
        grammar = (
            GrammarBuilder("t")
            .labels("A", "B")
            .roles("g")
            .categories("n", "v")
            .table("g", "A", "B")
            .lexical("g", "n", "A")
            .word("w", "n")
            .build()
        )
        noun = grammar.symbols.categories.code("n")
        verb = grammar.symbols.categories.code("v")
        assert grammar.allowed_labels(0, noun) == frozenset({grammar.symbols.labels.code("A")})
        # No lexical entry for verbs: falls back to the full table.
        assert grammar.allowed_labels(0, verb) == frozenset({0, 1})

    def test_word_with_no_category_rejected(self):
        builder = GrammarBuilder("t").labels("A").roles("g").categories("n")
        with pytest.raises(LexiconError):
            builder.word("w")


class TestTokenize:
    def test_tokenize_string(self, toy_grammar):
        sentence = toy_grammar.tokenize("The program runs.")
        assert sentence.words == ("The", "program", "runs")

    def test_tokenize_list(self, toy_grammar):
        sentence = toy_grammar.tokenize(["the", "program", "runs"])
        assert len(sentence) == 3

    def test_unknown_word(self, toy_grammar):
        with pytest.raises(LexiconError, match="flies"):
            toy_grammar.tokenize("the program flies")

    def test_empty_sentence(self, toy_grammar):
        with pytest.raises(GrammarError, match="empty"):
            toy_grammar.tokenize("")

    def test_case_insensitive_lexicon(self, toy_grammar):
        sentence = toy_grammar.tokenize("THE PROGRAM RUNS")
        det = toy_grammar.symbols.categories.code("det")
        assert sentence.category_sets[0] == frozenset({det})

    def test_canbe_array_row0_empty(self, toy_grammar):
        sentence = toy_grammar.tokenize("the program runs")
        table = sentence.canbe_array(len(toy_grammar.symbols.categories))
        assert not table[0].any()
        assert table.shape == (4, 3)


class TestLoader:
    def test_load_mini_grammar(self):
        grammar = load_grammar(MINI_GRAMMAR)
        assert grammar.name == "mini"
        assert grammar.n_labels == 2
        assert grammar.k == 1
        assert grammar.lexicon.category_names_of("bark") == {"verb", "noun"}

    def test_loaded_grammar_parses(self):
        from repro import ParserSession

        grammar = load_grammar(MINI_GRAMMAR)
        result = ParserSession(grammar, engine="vector").parse("bark")
        assert result.locally_consistent

    def test_round_trip(self):
        grammar = load_grammar(MINI_GRAMMAR)
        text = dump_grammar(grammar)
        again = load_grammar(text)
        assert again.name == grammar.name
        assert again.labels == grammar.labels
        assert again.roles == grammar.roles
        assert len(again.constraints) == len(grammar.constraints)
        assert dump_grammar(again) == text

    def test_round_trip_toy_grammar(self):
        grammar = program_grammar()
        again = load_grammar(dump_grammar(grammar))
        assert again.labels == grammar.labels
        assert [c.source for c in again.constraints] == [
            c.source for c in grammar.constraints
        ]

    def test_bad_top_form(self):
        with pytest.raises(GrammarError, match="grammar NAME"):
            load_grammar("(labels A)")

    def test_unknown_section(self):
        with pytest.raises(GrammarError, match="unknown grammar section"):
            load_grammar("(grammar g (labls A) (lexicon (w n)))")

    def test_sections_order_free(self):
        # The lexicon and constraints may appear before the namespaces.
        grammar = load_grammar(
            """
            (grammar g
              (lexicon (w n))
              (constraint c (if (eq (lab x) A) (eq (mod x) nil)))
              (labels A)
              (roles governor)
              (categories n))
            """
        )
        assert grammar.k == 1

    def test_numeric_word_forms_round_trip(self):
        """Regression: lexicon words that look like integers ("3")."""
        grammar = (
            GrammarBuilder("digits")
            .labels("A")
            .roles("g")
            .categories("num")
            .table("g", "A")
            .word("3", "num")
            .word("42", "num")
            .build()
        )
        again = load_grammar(dump_grammar(grammar))
        assert "3" in again.lexicon and "42" in again.lexicon
        assert dump_grammar(again) == dump_grammar(grammar)

    def test_bad_constraint_section(self):
        with pytest.raises(GrammarError, match="constraint NAME"):
            load_grammar(
                "(grammar g (labels A) (roles r) (categories n) (lexicon (w n)) (constraint c))"
            )


class TestToyGrammarShape:
    def test_counts_match_paper(self, toy_grammar):
        assert toy_grammar.n_labels == 6
        assert toy_grammar.n_roles == 2
        assert len(toy_grammar.unary_constraints) == 6
        assert len(toy_grammar.binary_constraints) == 4
        assert toy_grammar.k == 10

    def test_table_matches_paper(self, toy_grammar):
        symbols = toy_grammar.symbols
        governor = symbols.roles.code("governor")
        needs = symbols.roles.code("needs")
        gov_labels = {symbols.labels.name(code) for code in toy_grammar.table[governor]}
        needs_labels = {symbols.labels.name(code) for code in toy_grammar.table[needs]}
        assert gov_labels == {"SUBJ", "ROOT", "DET"}
        assert needs_labels == {"NP", "S", "BLANK"}

    def test_grammar_is_cached(self):
        assert program_grammar() is program_grammar()
