"""Ablations of design choices the paper calls out.

* **ABL-T** — footnote 1: "In our implementation, we also restrict labels
  by using word category information."  We run the English grammar with
  and without its lexical table and measure initial domain sizes and
  parse cost: the refinement is why realistic label sets stay tractable.

* **ABL-F** — footnote 3: the NC-reduction from the Monotone Circuit
  Value Problem to filtering.  We evaluate AND-chains of growing depth by
  filtering and show the iteration count grows linearly with depth — the
  executable form of "filtering is inherently sequential in the worst
  case", which motivates bounding it on the MasPar (design decision 5).

* **ABL-R** — "because of the power of the global router": the same
  global OR costed through the router (ceil(log2 P) scan stages) versus
  through X-Net single-hop shifts (grid-diameter hops).  The router's
  logarithmic reductions are what turn the mesh's O(k + n^2) into the
  MasPar's O(k + log n).
"""

from __future__ import annotations

import pytest

from repro import ParserSession
from repro.analysis import fit_power_law, format_seconds
from repro.grammar.builtin.english import english_grammar
from repro.grammar.grammar import CDGGrammar
from repro.network import ConstraintNetwork
from repro.reductions import and_chain, evaluate_by_filtering
from repro.workloads import sentence_of_length


def english_without_lexical_table() -> CDGGrammar:
    base = english_grammar()
    return CDGGrammar(
        name="english-no-lexical-table",
        symbols=base.symbols,
        table=base.table,
        constraints=base.constraints,
        lexicon=base.lexicon,
        lexical_table=None,
    )


@pytest.mark.benchmark(group="ablations")
def test_lexical_table_ablation(benchmark, report):
    """ABL-T: the footnote-1 label restriction."""
    refined = english_grammar()
    unrefined = english_without_lexical_table()
    ns = [6, 10, 14]

    def sweep():
        rows = []
        for n in ns:
            words = sentence_of_length(n)
            net_r = ConstraintNetwork(refined, refined.tokenize(words))
            net_u = ConstraintNetwork(unrefined, unrefined.tokenize(words))
            res_r = ParserSession(refined, engine="vector").parse(words)
            res_u = ParserSession(unrefined, engine="vector").parse(words)
            assert res_r.locally_consistent and res_u.locally_consistent
            rows.append((n, net_r.nv, net_u.nv, res_r.stats.wall_seconds, res_u.stats.wall_seconds))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = [
        [
            n,
            nv_r,
            nv_u,
            f"{nv_u / nv_r:.1f}x",
            format_seconds(t_r),
            format_seconds(t_u),
            f"{t_u / t_r:.1f}x",
        ]
        for n, nv_r, nv_u, t_r, t_u in rows
    ]
    report(
        "ABL-T: lexical label restriction (paper footnote 1)",
        ["n", "role values (with)", "(without)", "domain blowup", "parse (with)", "(without)", "slowdown"],
        table,
        notes="Without the (role, category) -> label table every word admits every\n"
              "table-T label for each role; domains and pair-sweep cost inflate.",
    )

    for _, nv_r, nv_u, t_r, t_u in rows:
        assert nv_u > 2 * nv_r  # domains inflate substantially
        assert t_u > t_r  # and so does parse cost


@pytest.mark.benchmark(group="ablations")
def test_filtering_cascade_depth(benchmark, report):
    """ABL-F: filtering iterations track circuit depth (footnote 3)."""
    depths = [2, 4, 8, 16, 32]

    def sweep():
        out = []
        for depth in depths:
            result = evaluate_by_filtering(and_chain(depth), [False, True])
            assert result.output is False
            out.append(result.iterations)
        return out

    iterations = benchmark.pedantic(sweep, rounds=1, iterations=1)

    fit = fit_power_law(depths, iterations)
    report(
        "ABL-F: MCVP filtering cascade (paper footnote 3)",
        ["circuit depth", "filtering iterations"],
        list(zip(depths, iterations, strict=True)),
        notes=f"iterations ~ depth^{fit.exponent:.2f} (R^2={fit.r_squared:.3f}) — the\n"
              "worst case really is sequential, which is why the MasPar bounds filtering.",
    )

    assert 0.85 < fit.exponent < 1.15
    assert iterations[-1] >= depths[-1] - 2


@pytest.mark.benchmark(group="ablations")
def test_router_vs_xnet_reduction(benchmark, report):
    """ABL-R: global OR through the router vs through the mesh."""
    import numpy as np

    from repro.maspar import MP1, xnet_reduce_or

    spans = [2**10, 2**14, 2**18]

    def sweep():
        rows = []
        for span in spans:
            router_machine = MP1(n_virtual=span)
            xnet_machine = MP1(n_virtual=span)
            bits = np.zeros(span, dtype=bool)
            bits[span // 3] = True
            assert router_machine.reduce_or(bits) is True
            assert xnet_reduce_or(xnet_machine, bits) is True
            rows.append(
                (span, router_machine.cycles // router_machine.vfactor,
                 xnet_machine.cycles // xnet_machine.vfactor)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ABL-R: one global OR — router scan vs X-Net shifts",
        ["PEs", "router cycles (O(log P))", "X-Net cycles (O(sqrt P))", "router advantage"],
        [[span, r, x, f"{x / r:.0f}x"] for span, r, x in rows],
        notes="the paper's design decision 3: global AND/OR go through the router.",
    )
    for span, router_cycles, xnet_cycles in rows:
        assert router_cycles < xnet_cycles
    # The gap must widen with machine size.
    gaps = [x / r for _, r, x in rows]
    assert gaps[0] < gaps[1] < gaps[2]
