#!/usr/bin/env python
"""Beyond context-free: parsing the copy language ww with CDG.

The paper's expressivity claim (section 1.5): "CDG can accept languages
that CFGs cannot, for example, ww".  This example runs the ww CDG
grammar side by side with a CFG for the *palindromes* w w^R — the
context-free language ww is most easily confused with — on a set of
strings that tell the two apart, and shows the matching structure the
CDG parse recovers.

Run:  python examples/copy_language.py
"""

from __future__ import annotations

from repro import ParserSession, accepts, extract_parses
from repro.cfg import cyk_accepts, palindrome_cfg, to_cnf
from repro.grammar.builtin import copy_language_grammar, copy_oracle

STRINGS = ["abab", "abba", "aabaab", "aabbaa", "aa", "ab", "abaaba", "ba"]


def main() -> None:
    grammar = copy_language_grammar()
    session = ParserSession(grammar, engine="vector")
    palindromes = to_cnf(palindrome_cfg())

    print(f"{'string':<10} {'ww (CDG)':<10} {'oracle':<8} {'w w^R (CFG)':<12}")
    print("-" * 44)
    for text in STRINGS:
        letters = list(text)
        network = session.parse(letters).network
        cdg = accepts(network)
        cfl = cyk_accepts(palindromes, letters)
        oracle = copy_oracle(letters)
        assert cdg == oracle, "the CDG grammar must match the ww oracle"
        print(f"{text:<10} {str(cdg):<10} {str(oracle):<8} {str(cfl):<12}")

    print(
        "\nNo CFG can compute the ww column (pumping lemma); the CDG grammar"
        "\ndoes it with 8 constraints.  The parse exhibits the copy map:"
    )
    network = session.parse(list("aabaab")).network
    parse = extract_parses(network)[0]
    governor = grammar.symbols.roles.code("governor")
    for pos, head in sorted(parse.heads(governor).items()):
        letter = network.sentence.words[pos - 1]
        if head:
            print(f"  word {pos} ({letter!r}) is copied by word {head}")


if __name__ == "__main__":
    main()
