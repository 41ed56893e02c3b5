"""RES-T2 — total parse time and the virtualization step function.

Paper section 3: parsing the example sentence takes ~0.15 s; a 10-word
sentence takes ~0.45 s "because of processor virtualization"; "the graph
of the parsing time as a function of the number of words in the sentence
would look like a discrete step function which grows as n^4".

This bench sweeps n = 2..12 on the toy grammar's lexicon, prints the
simulated parse time next to the paper's closed-form step model
ceil(q^2 n^4 / 16384) * 0.15 s, and asserts the three shape claims:
flat through n = 8 (4 * 8^4 = 16384 exactly fills the machine), a
discrete jump at n = 9..10, and the n=10 / n=3 ratio close to the
paper's 3x.
"""

from __future__ import annotations

import pytest

from repro import ParserSession
from repro.analysis import format_seconds
from repro.grammar.builtin import program_grammar
from repro.parsec import step_function_seconds, virtualization_units
from repro.workloads import toy_sentence

NS = list(range(2, 13))


@pytest.mark.benchmark(group="res-t2")
def test_parse_time_step_function(benchmark, report):
    def sweep():
        out = {}
        for n in NS:
            result = ParserSession(program_grammar(), engine="maspar").parse(toy_sentence(n))
            out[n] = result.stats
        return out

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for n in NS:
        s = stats[n]
        rows.append(
            [
                n,
                s.processors,
                virtualization_units(n),
                format_seconds(s.simulated_seconds),
                format_seconds(step_function_seconds(n)),
                f"{s.simulated_seconds / step_function_seconds(n):.2f}",
            ]
        )
    report(
        "RES-T2: total parse time vs sentence length (toy grammar, k = 10)",
        ["n", "virtual PEs", "units", "simulated", "paper step model", "sim/model"],
        rows,
        notes=(
            "paper anchors: 0.15 s at n=3 (calibrated), 0.45 s at n=10 (predicted);\n"
            "paper model = ceil(q^2 n^4 / 16384) * 0.15 s.  The simulated column's\n"
            "extra growth above the model is the O(log n) router-scan term."
        ),
    )

    sim = {n: stats[n].simulated_seconds for n in NS}
    # Anchor: the calibration target.
    assert sim[3] == pytest.approx(0.15, rel=0.01)
    # Flat region: everything through n=8 fits in one virtualization unit
    # and costs within ~40% of the n=3 parse (log-scan growth only).
    for n in range(2, 9):
        assert virtualization_units(n) == 1
        assert sim[n] < 0.15 * 1.4
    # The step: n=10 needs 3 units and lands within 2x of the paper's 0.45 s.
    assert virtualization_units(10) == 3
    assert 0.45 / 2 < sim[10] < 0.45 * 2
    # Monotone step growth beyond the machine boundary.
    assert sim[9] > sim[8]
    assert sim[12] > sim[10]
