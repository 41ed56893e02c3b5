"""RES-T3 — end-to-end parallel/serial speedup (paper section 3).

Paper: the MasPar parses the example sentence in ~0.15 s while "the
corresponding times for our serial implementation (running on a Sun
Sparcstation I) is ... 3 minutes to parse a sentence of 7 words" —
roughly three orders of magnitude.

Reproduced in two frames plus an ablation:

* 1992 frame — simulated MasPar seconds at n=7 versus the paper's
  reported 180 s serial figure.
* host frame — our *exhaustive* serial engine (the paper's algorithm:
  every binary constraint against every O(n^4) pair, which its
  15 s/constraint figure implies) versus the data-parallel vector
  engine, wall-clock on this machine.
* ablation — the *pruned* serial engine (skip dead role values and
  already-zero entries) closes most of that gap at small n, showing the
  1992 contrast was about unpruned O(k n^4) work, exactly what SIMD
  hardware absorbs.
"""

from __future__ import annotations

import pytest

from repro import ParserSession
from repro.analysis import format_seconds
from repro.grammar.builtin import program_grammar
from repro.parsec.timing import PAPER_SERIAL_SEVEN_WORD_SECONDS
from repro.workloads import toy_sentence


@pytest.mark.benchmark(group="res-t3")
def test_seven_word_speedup(benchmark, report):
    grammar = program_grammar()
    seven = toy_sentence(7)

    def run():
        maspar = ParserSession(grammar, engine="maspar").parse(seven)
        exhaustive = ParserSession(grammar, engine="serial-exhaustive").parse(seven)
        pruned = ParserSession(grammar, engine="serial").parse(seven)
        vector = ParserSession(grammar, engine="vector").parse(seven)
        return maspar, exhaustive, pruned, vector

    maspar, exhaustive, pruned, vector = benchmark.pedantic(run, rounds=1, iterations=1)

    sim = maspar.stats.simulated_seconds
    wall_ex = exhaustive.stats.wall_seconds
    wall_pr = pruned.stats.wall_seconds
    wall_vec = vector.stats.wall_seconds
    rows = [
        [
            "paper (1992)",
            "Sparcstation I serial vs MasPar",
            format_seconds(PAPER_SERIAL_SEVEN_WORD_SECONDS),
            "~0.15 s",
            f"{PAPER_SERIAL_SEVEN_WORD_SECONDS / 0.15:,.0f}x",
        ],
        [
            "1992 frame (sim)",
            "paper serial vs simulated MasPar",
            format_seconds(PAPER_SERIAL_SEVEN_WORD_SECONDS),
            format_seconds(sim),
            f"{PAPER_SERIAL_SEVEN_WORD_SECONDS / sim:,.0f}x",
        ],
        [
            "host frame",
            "exhaustive serial vs vector engine",
            format_seconds(wall_ex),
            format_seconds(wall_vec),
            f"{wall_ex / wall_vec:,.0f}x",
        ],
        [
            "host ablation",
            "pruned serial vs vector engine",
            format_seconds(wall_pr),
            format_seconds(wall_vec),
            f"{wall_pr / wall_vec:,.1f}x",
        ],
    ]
    report(
        "RES-T3: parallel/serial speedup on a 7-word sentence (toy grammar)",
        ["frame", "comparison", "serial", "parallel", "speedup"],
        rows,
        notes=(
            "paper claim: ~3 min serial vs ~0.15 s parallel.  The pruned-serial row is an\n"
            "ablation beyond the paper: unary pre-pruning recovers much of the gap at small n,\n"
            "so the 1992 contrast is specifically about unpruned O(k n^4) pair sweeps."
        ),
    )

    # All four settle identically (spot check the headline bits).
    assert exhaustive.locally_consistent == pruned.locally_consistent == vector.locally_consistent
    # 1992 frame: three-orders-of-magnitude territory (paper: 1200x).
    assert PAPER_SERIAL_SEVEN_WORD_SECONDS / sim > 100
    # Host frame: the data-parallel engine wins big over the faithful
    # exhaustive serial sweep ...
    assert wall_ex / wall_vec > 10
    # ... and pruning explains most of the difference.
    assert wall_ex / wall_pr > 5
