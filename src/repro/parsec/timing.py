"""Timing model and calibration against the paper's reported numbers.

The paper reports, for its grammar on the real MP-1 (section 3):

* "less than 10 milliseconds to propagate a constraint in a network of
  one to seven words";
* "the total time for the MasPar to parse the example sentence is
  approximately 0.15 seconds", and "0.45 seconds" for a 10-word
  sentence "because of processor virtualization";
* growth as a discrete step function in ceil(q^2 n^4 / 16384).

The simulator's cost model fixes every *architectural* constant (clock,
ALU width, scan stages); what it cannot know is the effective MPL/ACU
software overhead of the 1992 toolchain.  That is absorbed into a single
multiplicative calibration factor, chosen so the simulated toy-grammar
parse of "The program runs" costs exactly 0.15 s.  Everything else —
the 3x step to 0.45 s at n = 10, the flat per-constraint time through
n = 7, the O(log n) scan growth — must then *emerge* from the model;
EXPERIMENTS.md records how well it does.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: Paper-reported anchors (section 3).
PAPER_TOY_PARSE_SECONDS = 0.15
PAPER_TEN_WORD_PARSE_SECONDS = 0.45
PAPER_PER_CONSTRAINT_BOUND_SECONDS = 0.010
PAPER_SERIAL_PER_CONSTRAINT_SECONDS = 15.0
PAPER_SERIAL_SEVEN_WORD_SECONDS = 180.0
PHYSICAL_PES = 16384


def virtualization_units(n_words: int, q: int = 2) -> int:
    """The paper's ceil(q^2 n^4 / 16K) step function of sentence length."""
    return math.ceil(q * q * n_words**4 / PHYSICAL_PES)


def step_function_seconds(n_words: int, q: int = 2, base: float = PAPER_TOY_PARSE_SECONDS) -> float:
    """The paper's headline timing claim as a closed form.

    Parse time = (virtualization units) x (one-unit parse time).  With
    base = 0.15 s this reproduces both reported points: n=3 -> 0.15 s,
    n=10 -> 0.45 s.
    """
    return virtualization_units(n_words, q) * base


@lru_cache(maxsize=4)
def _raw_toy_cycles(cost_key: tuple) -> int:
    """Uncalibrated simulated cycles for the paper's example parse."""
    from repro.grammar.builtin import program_grammar
    from repro.maspar.cost import CostModel
    from repro.parsec.parser import MasParEngine
    from repro.pipeline.session import ParserSession

    engine = MasParEngine(cost=CostModel(*cost_key), calibrate=False)
    result = ParserSession(program_grammar(), engine=engine).parse("The program runs")
    return result.stats.extra["cycles"]


def calibration_factor(cost=None) -> float:
    """Multiplier mapping simulated cycles to 1992 wall-clock.

    Solves ``factor * simulated_toy_seconds == 0.15 s`` once per cost
    model and caches the answer.
    """
    from repro.maspar.cost import DEFAULT_COST_MODEL

    cost = cost or DEFAULT_COST_MODEL
    key = (
        cost.clock_hz,
        cost.n_physical,
        cost.pe_bits,
        cost.broadcast_cycles,
        cost.instruction_overhead,
        cost.scan_cycles_per_stage,
        cost.router_cycles,
    )
    raw_seconds = _raw_toy_cycles(key) / cost.clock_hz
    return PAPER_TOY_PARSE_SECONDS / raw_seconds
