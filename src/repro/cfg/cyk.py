"""CYK recognition — the Figure-8 sequential CFG row.

Classic O(|G| * n^3) bottom-up dynamic programming over a CNF grammar.
The chart is one boolean ``(n, n)`` matrix per nonterminal, filled
span length by span length; the inner split loop is a vectorized
AND/any over all split points of a span at once.

``split_operations`` counts the (length, split, rule) combination steps
the textbook loop performs — input-shape arithmetic, independent of
chart content.  The Figure-8 cellular row (:func:`repro.cfg.mesh_cyk`)
performs the same steps in lock-step wavefronts and reports the same
count as ``cell_operations``; it and Earley on the original grammar are
the cross-checks the test suite sweeps CYK against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfg.grammar import CFG
from repro.errors import GrammarError


@dataclass
class CYKResult:
    accepted: bool
    chart_sets: list[list[frozenset[str]]]  # chart_sets[i][j]: span i..j (incl.)
    split_operations: int  # counted (length, split, rule) combination steps


def cyk_parse(grammar: CFG, words: list[str] | tuple[str, ...]) -> CYKResult:
    """Recognize *words* with CYK.

    Args:
        grammar: a CNF grammar.

    Raises:
        GrammarError: if *grammar* is not in CNF.
    """
    if not grammar.is_cnf():
        raise GrammarError("CYK requires a CNF grammar; call to_cnf() first")
    n = len(words)
    if n == 0:
        accepted = any(p.lhs == grammar.start and not p.rhs for p in grammar.productions)
        return CYKResult(accepted, [], 0)
    nts = sorted(grammar.nonterminals)
    nt_index = {nt: i for i, nt in enumerate(nts)}
    unary = [(p.lhs, p.rhs[0]) for p in grammar.productions if len(p.rhs) == 1]
    binary = [
        (nt_index[p.lhs], nt_index[p.rhs[0]], nt_index[p.rhs[1]])
        for p in grammar.productions
        if len(p.rhs) == 2
    ]

    # chart[a, i, j] = nonterminal a derives words[i..j] inclusive.
    chart = np.zeros((len(nts), n, n), dtype=bool)
    for i, word in enumerate(words):
        for lhs, terminal in unary:
            if terminal == word:
                chart[nt_index[lhs], i, i] = True

    operations = 0
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            for lhs, left, right in binary:
                # All split points k in one vector operation.
                lefts = chart[left, i, i : j]  # spans (i, k)
                rights = chart[right, i + 1 : j + 1, j]  # spans (k+1, j)
                operations += length - 1
                if (lefts & rights).any():
                    chart[lhs, i, j] = True

    chart_sets = [
        [
            frozenset(nts[a] for a in range(len(nts)) if chart[a, i, j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    accepted = bool(chart[nt_index[grammar.start], 0, n - 1])
    return CYKResult(accepted, chart_sets, operations)


def cyk_accepts(grammar: CFG, words) -> bool:
    return cyk_parse(grammar, list(words)).accepted
