#!/usr/bin/env python
"""Staged constraint sets for spoken-language understanding (section 1.5).

The paper's motivation for CDG is a speech system: "We are currently
developing a core set of constraints (i.e., they apply in all
situations), which are the first constraints to propagate, followed by
other contextually-determined constraint sets."

This example simulates that pipeline:

1. the grammar's **core** constraints run first and leave the utterance
   structurally ambiguous (three PP attachments);
2. a **discourse** cue arrives — the "near the park" phrase describes a
   thing, not the seeing event — as one contextual constraint;
3. a **prosodic** cue arrives — no pause between "the duck" and "near",
   so the PP groups with the most recent phrase — as another.

Each cue is an ordinary CDG constraint applied with the public
incremental API (:func:`repro.propagation.apply_constraints`); the
network is never re-parsed from scratch, exactly the property the paper
wants for real-time speech.

Run:  python examples/incremental_speech.py
"""

from __future__ import annotations

from repro import Constraint, ParserSession, count_parses, extract_parses
from repro.grammar.builtin.english import english_grammar
from repro.propagation import apply_constraints

UTTERANCE = "the man sees the duck near the park"


def stage(title: str, network) -> None:
    print(f"--- {title} ---")
    print(f"stored parses: {count_parses(network)}")
    for parse in extract_parses(network, limit=4):
        heads = parse.heads(0)
        attach = heads[6]  # "near" is word 6
        word = network.sentence.words[attach - 1]
        print(f"  'near' attaches to word {attach} ({word!r})")
    print()


def main() -> None:
    grammar = english_grammar()

    # Stage 1: core grammar constraints only.
    network = ParserSession(grammar, engine="vector").parse(UTTERANCE).network
    print(f"Utterance: {UTTERANCE!r}\n")
    stage("after core constraints", network)

    # Stage 2: discourse — the locative phrase describes an entity.
    discourse = Constraint.parse(
        """
        (if (and (eq (lab x) PP)
                 (eq (role y) governor)
                 (eq (pos y) (mod x)))
            (not (eq (lab y) ROOT)))
        """,
        grammar.symbols,
        name="discourse-pp-is-nominal",
    )
    eliminated = apply_constraints(network, [discourse])
    print(f"(discourse constraint eliminated {eliminated} role values)\n")
    stage("after discourse constraints", network)

    # Stage 3: prosody — no pause before "near": attach within the most
    # recent phrase (anything right of the verb at position 3).
    prosodic = Constraint.parse(
        """
        (if (eq (lab x) PP)
            (gt (mod x) 3))
        """,
        grammar.symbols,
        name="prosody-no-pause-recent-attachment",
    )
    eliminated = apply_constraints(network, [prosodic])
    print(f"(prosodic constraint eliminated {eliminated} role values)\n")
    stage("after prosodic constraints", network)


if __name__ == "__main__":
    main()
