"""RES-T1 — per-constraint propagation time (paper section 3).

Paper: "Time trials indicate that it takes less than 10 milliseconds to
propagate a constraint in a network of one to seven words" on the
MasPar; "15 seconds to apply a single constraint" for the serial
implementation on a Sparcstation I (7 words).

Two like-for-like comparisons reproduce the shape:

* **1992 frame** — the simulated MasPar's per-constraint time (cycle
  model, calibrated) stays flat and ~10 ms-order for n = 1..7, against
  the paper's *reported* 15 s serial figure: a three-orders-of-magnitude
  gap, as published.
* **this-host frame** — our serial engine versus our vector (SIMD-style)
  engine, both wall-clock on the same machine: the serial cost grows
  ~ n^4 while the vector cost barely moves, the same qualitative gap.
"""

from __future__ import annotations

import statistics

import pytest

from repro import ParserSession
from repro.analysis import fit_power_law, format_seconds
from repro.grammar.builtin import program_grammar
from repro.parsec import MasParEngine
from repro.parsec.timing import (
    PAPER_PER_CONSTRAINT_BOUND_SECONDS,
    PAPER_SERIAL_PER_CONSTRAINT_SECONDS,
)
from repro.workloads import toy_sentence

NS = list(range(1, 8))


def maspar_per_constraint_seconds(n: int) -> float:
    engine = MasParEngine()
    result = ParserSession(program_grammar(), engine=engine).parse(toy_sentence(n))
    cycles = result.stats.extra["constraint_cycles"]
    factor = result.stats.extra["calibration_factor"]
    return statistics.mean(cycles) * factor / engine.cost.clock_hz


def wall_per_constraint_seconds(engine, n: int) -> float:
    result = ParserSession(program_grammar(), engine=engine).parse(toy_sentence(n))
    return result.stats.wall_seconds / result.network.grammar.k


@pytest.mark.benchmark(group="res-t1")
def test_per_constraint_time_one_to_seven_words(benchmark, report):
    def sweep():
        maspar = [maspar_per_constraint_seconds(n) for n in NS]
        serial = [wall_per_constraint_seconds("serial-exhaustive", n) for n in NS]
        vector = [wall_per_constraint_seconds("vector", n) for n in NS]
        return maspar, serial, vector

    maspar, serial, vector = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            n,
            format_seconds(m),
            f"{PAPER_SERIAL_PER_CONSTRAINT_SECONDS / m:,.0f}x" if n == 7 else "",
            format_seconds(s),
            format_seconds(v),
            f"{s / v:,.0f}x",
        ]
        for n, m, s, v in zip(NS, maspar, serial, vector, strict=True)
    ]
    report(
        "RES-T1: per-constraint propagation time, n = 1..7",
        [
            "n",
            "MasPar sim (1992 s)",
            "paper-serial/sim",
            "serial exhaustive (host)",
            "vector (host)",
            "serial/vector",
        ],
        rows,
        notes=(
            f"paper: <{format_seconds(PAPER_PER_CONSTRAINT_BOUND_SECONDS)} per constraint on the MasPar, "
            f"{format_seconds(PAPER_SERIAL_PER_CONSTRAINT_SECONDS)} serial on a Sparcstation I (n=7).\n"
            "Shape claims: the MasPar column is flat for n <= 7 (one virtualization unit);\n"
            "the exhaustive serial column grows ~ n^4; the data-parallel engine grows far slower."
        ),
    )

    # Flat through n = 7 and the same order as the paper's 10 ms bound.
    assert max(maspar) / min(maspar) < 2.5
    assert maspar[-1] < 10 * PAPER_PER_CONSTRAINT_BOUND_SECONDS
    # In the 1992 frame: the published serial figure is >= 2 orders of
    # magnitude above the simulated parallel per-constraint time.
    assert PAPER_SERIAL_PER_CONSTRAINT_SECONDS / maspar[-1] > 100
    # In the host frame: serial per-constraint cost grows ~ n^4, the
    # vector engine's much more slowly, and serial is already behind at
    # n = 7 (the gap keeps widening with n; RES-T3 shows it at scale).
    serial_fit = fit_power_law(NS[2:], serial[2:])
    vector_fit = fit_power_law(NS[2:], vector[2:])
    assert 3.0 < serial_fit.exponent < 5.0
    assert serial_fit.exponent - vector_fit.exponent > 0.8
    assert serial[-1] / vector[-1] > 2
