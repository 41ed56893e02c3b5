#!/usr/bin/env python
"""Quickstart: parse the paper's example sentence, end to end.

Reproduces the worked example of the paper's section 1 — "The program
runs" under the toy grammar — showing the constraint network before and
after propagation, the final precedence graph (paper Figure 7), and the
simulated-MasPar timing of section 3.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ParserSession, extract_parses
from repro.grammar.builtin import program_grammar


def main() -> None:
    grammar = program_grammar()
    print(f"Grammar: {grammar!r}\n")

    # -- watch the network evolve (paper Figures 1-6) --------------------
    states: list[tuple[str, str]] = []
    result = ParserSession(grammar, engine="serial").parse(
        "The program runs",
        trace=lambda event, net: states.append((event, net.describe())),
    )

    for event in ("built", "unary-done", "filtering-done"):
        description = next(text for name, text in states if name == event)
        print(f"--- after {event} ---")
        print(description)
        print()

    # -- acceptance and the precedence graph (Figure 7) -------------------
    print("locally consistent:", result.locally_consistent)
    print("ambiguous:", result.ambiguous)
    parses = extract_parses(result.network)
    print(f"\n{len(parses)} parse(s):")
    for parse in parses:
        print(parse.describe(grammar.symbols))

    # -- and on the simulated MasPar MP-1 (section 3) ---------------------
    maspar = ParserSession(grammar, engine="maspar").parse("The program runs")
    stats = maspar.stats
    print(
        f"\nSimulated MasPar MP-1: {stats.processors} virtual PEs "
        f"(paper: 324), {stats.extra['cycles']:,} cycles, "
        f"simulated parse time {stats.simulated_seconds:.3f} s (paper: ~0.15 s)"
    )


if __name__ == "__main__":
    main()
