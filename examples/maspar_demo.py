#!/usr/bin/env python
"""Inside the simulated MasPar MP-1: PE layout, scans, and the step function.

Walks the machinery of the paper's section 2.2:

1. the Figure-11 PE allocation for "The program runs" (324 virtual PEs,
   disabled self-arc PEs, scan segments);
2. one scanOr/scanAnd consistency check, Figure-12 style, on the raw
   machine primitives;
3. the section-3 timing claims: the per-sentence-length parse-time step
   function with the 16K-PE virtualization boundary.

Run:  python examples/maspar_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import ParserSession
from repro.grammar.builtin import program_grammar
from repro.maspar import MP1
from repro.network import ConstraintNetwork
from repro.parsec import build_layout, step_function_seconds, virtualization_units
from repro.workloads import toy_sentence


def show_layout() -> None:
    grammar = program_grammar()
    network = ConstraintNetwork(grammar, grammar.tokenize("The program runs"))
    layout = build_layout(network)
    print("== Figure 11: PE allocation ==")
    print(f"virtual PEs: {layout.n_pes} (paper: 324)")
    print(f"label submatrix per PE: {layout.n_slots} x {layout.n_slots} (Figure 13)")
    print(f"disabled self-arc PEs: {int((~layout.enabled).sum())} (e.g. PEs 0-2)")
    print(
        f"scanOr segments: {len(np.unique(layout.fine_seg))} of "
        f"{layout.n_mods} PEs; scanAnd segments: "
        f"{len(np.unique(layout.coarse_seg))} of {layout.n_roles * layout.n_mods} PEs"
    )
    for pe in (0, 9, 108):
        col_word = network.sentence.words[layout.role_pos[layout.col_role[pe]] - 1]
        row_word = network.sentence.words[layout.role_pos[layout.row_role[pe]] - 1]
        state = "enabled" if layout.enabled[pe] else "DISABLED (self-arc)"
        print(
            f"  PE {pe:3d}: columns from {col_word!r}, rows from {row_word!r} — {state}"
        )


def show_scan_primitives() -> None:
    print("\n== Figure 12: scanOr / scanAnd on the raw machine ==")
    machine = MP1(n_virtual=12)
    # Three segments of four PEs; check "does any PE of my segment hold 1?"
    bits = np.array([0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1], dtype=bool)
    seg = np.repeat(np.arange(3), 4)
    ors = machine.segment_or(bits, seg)
    ands = machine.segment_and(ors, seg)
    print(f"bits:        {bits.astype(int)}")
    print(f"segment ids: {seg}")
    print(f"segment_or:  {ors.astype(int)}")
    print(f"cycles charged: {machine.cycles} "
          f"({machine.ops.scan} scans at ceil(log2 12) = 4 stages each)")
    del ands


def show_step_function() -> None:
    print("\n== Section 3: the parse-time step function ==")
    session = ParserSession(program_grammar(), engine="maspar")
    print(f"{'n':>3} {'virtual PEs':>12} {'units':>6} {'simulated':>10} {'paper model':>12}")
    for n in range(2, 13):
        result = session.parse(toy_sentence(n))
        print(
            f"{n:>3} {result.stats.processors:>12,} {virtualization_units(n):>6} "
            f"{result.stats.simulated_seconds:>9.3f}s {step_function_seconds(n):>11.2f}s"
        )
    print("paper anchors: 0.15 s at n=3, 0.45 s at n=10; the jump at n=9 is\n"
          "the q^2 n^4 > 16384 virtualization boundary.")


def main() -> None:
    show_layout()
    show_scan_primitives()
    show_step_function()


if __name__ == "__main__":
    main()
