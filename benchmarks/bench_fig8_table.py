"""FIG8 — the architecture comparison table (paper Figure 8).

The paper tabulates processor counts and running times for CFG and CDG
parsing on five architectures.  This bench regenerates the table and
backs every implementable row with a measurement:

* CFG / Sequential        — CYK split-operation growth exponent (≈ n^3)
* CFG / CRCW P-RAM        — Ruzzo's O(log^2 n) with O(n^6) PEs: analytic
                            (no implementation exists anywhere; noted)
* CFG / 2D cellular       — wavefront steps of the mesh CYK (= n - 1)
* CDG / Sequential        — serial-engine pair-check growth (≈ n^4)
* CDG / CRCW P-RAM        — PRAM step count, flat in n (O(k))
* CDG / 2D mesh           — per-cell time of the mesh engine (≈ n^2)
* CDG / Tree & Hypercube  — the MasPar: simulated cycles grow O(k + log n)
"""

from __future__ import annotations

import pytest

from repro import ParserSession
from repro.analysis import fit_log_growth, fit_power_law
from repro.cfg import cyk_parse, english_cfg, mesh_cyk, to_cnf
from repro.grammar.builtin import program_grammar
from repro.workloads import sentence_of_length, toy_sentence


def measure_cfg_sequential():
    cnf = to_cnf(english_cfg())
    ns = [4, 6, 8, 12, 16]
    ops = [cyk_parse(cnf, sentence_of_length(n)).split_operations for n in ns]
    return fit_power_law(ns, ops)


def measure_cfg_mesh():
    cnf = to_cnf(english_cfg())
    ns = [4, 8, 12, 16]
    results = [mesh_cyk(cnf, sentence_of_length(n)) for n in ns]
    steps = [r.wavefront_steps for r in results]
    cells = [r.cells for r in results]
    exactly_linear = steps == [n - 1 for n in ns]
    return ns, steps, exactly_linear, fit_power_law(ns, cells)


def measure_cdg_sequential():
    grammar = program_grammar()
    ns = [3, 4, 5, 6]
    checks = [
        ParserSession(grammar, engine="serial").parse(toy_sentence(n)).stats.pair_checks
        for n in ns
    ]
    return fit_power_law(ns, checks)


def measure_cdg_pram():
    grammar = program_grammar()
    ns = [3, 4, 5]
    results = [ParserSession(grammar, engine="pram").parse(toy_sentence(n)) for n in ns]
    steps = [r.stats.parallel_steps for r in results]
    procs = [r.stats.processors for r in results]
    return ns, steps, fit_power_law(ns, procs)


def measure_cdg_mesh():
    grammar = program_grammar()
    ns = [3, 6, 9, 12]
    results = [ParserSession(grammar, engine="mesh").parse(toy_sentence(n)) for n in ns]
    times = [r.stats.extra["mesh_time"] for r in results]
    cells = [r.stats.processors for r in results]
    return fit_power_law(ns, times), fit_power_law(ns, cells)


def measure_cdg_maspar():
    grammar = program_grammar()
    ns = [2, 3, 4, 5, 6, 7, 8]  # the single-virtualization-unit regime
    cycles = [
        ParserSession(grammar, engine="maspar").parse(toy_sentence(n)).stats.extra["cycles"]
        for n in ns
    ]
    slope, intercept, r2 = fit_log_growth(ns, cycles)
    return ns, cycles, slope, r2


@pytest.mark.benchmark(group="fig8")
def test_fig8_architecture_table(benchmark, report):
    def build():
        return (
            measure_cfg_sequential(),
            measure_cfg_mesh(),
            measure_cdg_sequential(),
            measure_cdg_pram(),
            measure_cdg_mesh(),
            measure_cdg_maspar(),
        )

    (
        cfg_seq,
        (mesh_ns, mesh_steps, mesh_linear, mesh_cells),
        cdg_seq,
        (pram_ns, pram_steps, pram_procs),
        (cdg_mesh_time, cdg_mesh_cells),
        maspar,
    ) = benchmark.pedantic(build, rounds=1, iterations=1)
    ns, cycles, slope, r2 = maspar

    rows = [
        [
            "Sequential", "CFG", "1", "O(k^3 n^3)",
            f"CYK ops ~ n^{cfg_seq.exponent:.2f} (R^2={cfg_seq.r_squared:.3f})",
        ],
        [
            "CRCW P-RAM", "CFG", "O(n^6)", "O(log^2 n)",
            "analytic only (Ruzzo 1980; no implementation exists)",
        ],
        [
            "2D Cellular Automata", "CFG", "O(n^2)", "O(k n)",
            f"mesh CYK: steps = n-1 exactly over n={mesh_ns}; cells ~ n^{mesh_cells.exponent:.2f}",
        ],
        [
            "Sequential", "CDG", "1", "O(k n^4)",
            f"pair checks ~ n^{cdg_seq.exponent:.2f} (R^2={cdg_seq.r_squared:.3f})",
        ],
        [
            "CRCW P-RAM", "CDG", "O(n^4)", "O(k)",
            f"steps {pram_steps} flat over n={pram_ns}; PEs ~ n^{pram_procs.exponent:.2f}",
        ],
        [
            "2D Mesh / Cellular", "CDG", "O(n^2)", "O(k + n^2)",
            f"mesh engine: per-cell time ~ n^{cdg_mesh_time.exponent:.2f}, cells ~ n^{cdg_mesh_cells.exponent:.2f}",
        ],
        [
            "Tree & Hypercube (MasPar)", "CDG", "O(n^4 / log n)", "O(k + log n)",
            f"sim cycles = {slope:.0f} log2(n) + c (R^2={r2:.3f}) for n<=8",
        ],
    ]
    report(
        "FIG8: CFG and CDG parsing across architectures (paper vs measured)",
        ["Architecture", "Formalism", "#PEs (paper)", "Time (paper)", "Measured"],
        rows,
        notes="k = |grammar| (productions / constraints); measured columns from this run.",
    )

    # Shape assertions: the measured exponents must match the asymptotics.
    assert 2.5 < cfg_seq.exponent < 3.5
    assert mesh_linear, f"mesh steps {mesh_steps} != n - 1 over {mesh_ns}"
    assert 1.8 < mesh_cells.exponent < 2.2
    assert 3.3 < cdg_seq.exponent < 4.5
    # O(k): PRAM step counts may differ only by filtering iterations.
    assert max(pram_steps) - min(pram_steps) <= 8
    assert 3.5 < pram_procs.exponent < 4.5
    assert 1.6 < cdg_mesh_time.exponent < 2.4
    assert 1.9 < cdg_mesh_cells.exponent < 2.1
    assert r2 > 0.8  # cycles are ~ a log n + b in the unit regime
