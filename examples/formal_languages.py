#!/usr/bin/env python
"""The four formal-language CDG grammars, side by side.

Section 1.5's expressivity claim — CDG is strictly more powerful than
CFG — demonstrated across the classic ladder:

    a^n b^n          context-free        (one counting matching)
    Dyck (D2)        context-free        (nested matching)
    w w              NOT context-free    (monotone copy matching)
    a^n b^n c^n d^n  NOT context-free    (three simultaneous matchings,
                                          three roles per word)

Each grammar is a handful of the same mutual-pointing constraints; the
differences between the languages live entirely in the ordering
constraints on the matchings.

Run:  python examples/formal_languages.py
"""

from __future__ import annotations

from repro import ParserSession, accepts, extract_parses
from repro.grammar.builtin import (
    abcd_grammar,
    abcd_oracle,
    anbn_grammar,
    anbn_oracle,
    copy_language_grammar,
    copy_oracle,
    dyck_grammar,
    dyck_oracle,
)

SUITES = [
    ("a^n b^n", anbn_grammar(), anbn_oracle, ["ab", "aabb", "abab", "aab", "ba"]),
    ("Dyck D2", dyck_grammar(), dyck_oracle, ["()", "([])", "([)]", ")(", "()[]"]),
    ("w w", copy_language_grammar(), copy_oracle, ["abab", "abba", "aabaab", "aa", "ab"]),
    (
        "a^n b^n c^n d^n",
        abcd_grammar(),
        abcd_oracle,
        ["abcd", "aabbccdd", "abdc", "aabbccd", "abcdabcd"],
    ),
]


def main() -> None:
    for name, grammar, oracle, samples in SUITES:
        print(f"== {name}  ({grammar.k} constraints, {grammar.n_roles} roles) ==")
        session = ParserSession(grammar, engine="vector")
        for text in samples:
            words = list(text)
            verdict = accepts(session.parse(words).network)
            expected = oracle(words)
            assert verdict == expected, (name, text)
            print(f"  {text:<10} {'ACCEPT' if verdict else 'reject'}")
        print()

    # Show the three simultaneous matchings of the q=3 grammar.
    grammar = abcd_grammar()
    network = ParserSession(grammar, engine="vector").parse(list("aabbccdd")).network
    parse = extract_parses(network)[0]
    print("matchings recovered for 'aabbccdd':")
    for (pos, role), value in parse.assignment:
        if value.mod:
            role_name = grammar.symbols.roles.name(role)
            label = grammar.symbols.labels.name(value.lab)
            print(f"  word {pos} --{label}({role_name})--> word {value.mod}")


if __name__ == "__main__":
    main()
