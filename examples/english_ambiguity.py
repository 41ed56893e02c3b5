#!/usr/bin/env python
"""Structural ambiguity in the English grammar: PP attachment.

The paper (section 1.5) argues that CDG's constraint networks "compactly
store multiple parses and such ambiguity is easy to detect", letting a
system postpone structural decisions until more constraints arrive.
This example parses the classic ambiguous sentence

    "the man sees the woman with the telescope"

shows all three precedence graphs the settled network stores, then
demonstrates the paper's proposed remedy: propagating one *additional*
contextual constraint to collapse the ambiguity.

Run:  python examples/english_ambiguity.py
"""

from __future__ import annotations

from repro import Constraint, ParserSession, extract_parses
from repro.grammar.builtin.english import english_grammar
from repro.propagation import apply_constraint

SENTENCE = "the man sees the woman with the telescope"


def show_attachments(grammar, network) -> None:
    parses = extract_parses(network, limit=None)
    print(f"{len(parses)} parse(s); 'with' attaches to:")
    for parse in parses:
        heads = parse.heads(grammar.symbols.roles.code("governor"))
        target = heads[6]  # "with" is word 6
        word = network.sentence.words[target - 1]
        print(f"  word {target} ({word!r})")
        print("    " + parse.describe(grammar.symbols).replace("\n", "\n    "))


def main() -> None:
    grammar = english_grammar()
    result = ParserSession(grammar, engine="vector").parse(SENTENCE)
    print(f"Sentence: {SENTENCE!r}")
    print("ambiguous:", result.ambiguous)
    print()
    show_attachments(grammar, result.network)

    # -- contextual disambiguation (paper section 1.5) ---------------------
    # Suppose context (e.g. prosody, or a discourse model) tells us the
    # telescope is the instrument of seeing: PPs attach to the verb.
    contextual = Constraint.parse(
        """
        (if (and (eq (lab x) PP)
                 (eq (role y) governor)
                 (eq (pos y) (mod x)))
            (eq (lab y) ROOT))
        """,
        grammar.symbols,
        name="context-instrumental-pp",
    )
    network = result.network
    eliminated = apply_constraint(network, contextual)

    print(f"\nAfter propagating the contextual constraint {contextual.name!r} "
          f"({eliminated} role values eliminated):")
    show_attachments(grammar, network)


if __name__ == "__main__":
    main()
