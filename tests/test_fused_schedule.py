"""The fused vector schedule against its reference, bit for bit.

With no trace hook and no filter limit, ``VectorEngine`` kills the
template's folded unary dead set at once, ANDs the fused binary mask
into the K unary survivors' rows (the template evaluated the binary
constraints only over their K x K block), and settles consistency on
the block of values still alive.  The reference shares none of those
artifacts: it runs the engine's per-constraint unary rounds (one kill
per unary vector), ANDs each per-constraint binary mask over all NV^2
pairs in turn (``VectorMasks.binary``), and runs ``run_filtering`` (the
full-width sweep to quiescence).  Both must leave the same packed bits,
the same verdicts and the same six deterministic counters; the summed
per-constraint zeroed counts must equal the fused AND's.  The
``serial`` engine checks the bits independently, and a traced and a
filter-limited parse on the same template (the per-constraint
schedule, which evaluates ``binary`` lazily) must settle to them too.

The sweep covers english sentences (random and scrambled) and random
grammars, and counts the corners it reached: no unary survivor (K = 0),
every value a unary survivor (K = NV), and a role emptied during the
fixpoint.  The random sweep runs twice: with the alive-share selection
between the block and the full-width sweep, and with the block forced.
Hand-built grammars add what the random ones do not produce reliably: a
structurally empty role, binary constraints with no unary one (K = NV
on every sentence), and no binary constraints at all (``masks.fused is
None``, where the per-constraint path still runs).  A network with
kills before the engine runs checks that the fold's fresh-bind counters
are not used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro import EngineStats, GrammarBuilder, ParserSession, VectorEngine
from repro.grammar.builtin import english_grammar
from repro.propagation import consistency
from repro.propagation.consistency import run_filtering
from repro.workloads.random_grammars import random_grammar, random_sentence_for
from repro.workloads.sentences import random_sentence, scrambled_sentence

COUNTERS = (
    "unary_checks",
    "pair_checks",
    "role_values_killed",
    "matrix_entries_zeroed",
    "consistency_passes",
    "filtering_iterations",
)


@dataclass
class Corners:
    """Edge cases a sweep reached."""

    parses: int = 0
    no_survivors: int = 0  # K = 0: the unary phase killed every value
    all_survive: int = 0  # K = NV: the unary phase killed nothing
    role_emptied_by_fixpoint: int = 0


def reference_run(session: ParserSession, network):
    """Run the unfolded schedule on *network*, one binary mask at a time.

    Returns its counters, the values alive after the unary rounds, and
    the verdict before the fixpoint.
    """
    masks = network.template.vector_masks(session.compiled)
    unary = EngineStats()
    VectorEngine._unary_rounds(network, masks=masks, compiled=session.compiled, stats=unary)
    survivors = np.flatnonzero(network.alive)
    zeroed = sum(network.apply_pair_mask_bits(mask) for mask in masks.binary)
    nonempty_before_fixpoint = network.all_domains_nonempty()
    fixpoint = run_filtering(network)
    counters = {
        "unary_checks": unary.unary_checks,
        "pair_checks": network.nv * network.nv * len(session.compiled.binary),
        "role_values_killed": unary.role_values_killed + fixpoint.role_values_killed,
        "matrix_entries_zeroed": zeroed,
        "consistency_passes": fixpoint.consistency_passes,
        "filtering_iterations": fixpoint.filtering_iterations,
    }
    return counters, survivors, nonempty_before_fixpoint


def reference_parse(session: ParserSession, words):
    """A fresh bind of *words* through :func:`reference_run`."""
    sent = session.tokenize(words)
    network = session.template_for(sent).bind(sent)
    return (network, *reference_run(session, network))


def assert_same_settled_bits(result, reference, context: str) -> None:
    for name in ("alive_bits", "matrix_bits"):
        assert np.array_equal(
            getattr(result.network, name), getattr(reference.network, name)
        ), f"{name} differ: {context}"
    assert result.locally_consistent == reference.locally_consistent, context


def check_fused(grammar, words, corners: Corners):
    """Parse *words* on the fused path; compare with the reference and ``serial``.

    Grammars without binary constraints take the per-constraint path,
    which must still match the reference.
    """
    context = f"{grammar.name}: {words}"
    session = ParserSession(grammar, engine="vector")
    result = session.parse(words)
    fused = bool(grammar.binary_constraints)
    assert result.stats.extra.get("fused_binary_kernel", False) is fused, context
    masks = result.network.template.vector_masks(session.compiled)
    if fused:
        assert not masks.binary_materialized, f"a fused parse evaluated binary: {context}"
    network, counters, survivors, nonempty_before = reference_parse(session, words)
    assert np.array_equal(masks.survivors, survivors), context
    for name in ("alive_bits", "matrix_bits"):
        assert np.array_equal(
            getattr(result.network, name), getattr(network, name)
        ), f"{name} differ from the reference: {context}"
    assert result.locally_consistent == network.all_domains_nonempty(), context
    assert result.ambiguous == network.is_ambiguous(), context
    for name in COUNTERS:
        assert getattr(result.stats, name) == counters[name], f"{name}: {context}"
    oracle = ParserSession(grammar, engine="serial").parse(words)
    assert_same_settled_bits(result, oracle, f"serial, {context}")
    # The per-constraint schedule on the same template reads ``binary``.
    traced = session.parse(words, trace=lambda step, net: None)
    assert_same_settled_bits(traced, result, f"trace=, {context}")
    limited = session.parse(words, filter_limit=result.network.nv + 1)
    assert_same_settled_bits(limited, result, f"filter_limit=, {context}")
    corners.parses += 1
    corners.no_survivors += survivors.size == 0
    corners.all_survive += survivors.size == result.network.nv
    corners.role_emptied_by_fixpoint += nonempty_before and not result.locally_consistent
    return result


def test_english_sentences_match_the_reference():
    grammar = english_grammar()
    rng = random.Random(0)
    corners = Corners()
    for index in range(40):
        words = random_sentence(rng) if index % 2 else scrambled_sentence(rng)
        check_fused(grammar, words, corners)
    assert corners.parses == 40


@pytest.mark.parametrize("max_share", [None, 1.0], ids=["selected", "always-block"])
def test_random_grammars_match_the_reference(monkeypatch, max_share):
    if max_share is not None:
        monkeypatch.setattr(consistency, "BLOCK_MAX_ALIVE_SHARE", max_share)
    corners = Corners()
    for seed in range(150):
        rng = random.Random(seed)
        grammar = random_grammar(rng)
        for _ in range(3):
            words = random_sentence_for(grammar, rng, max_len=5)
            check_fused(grammar, words, corners)
    # The sweep only proves the corners it reaches.
    assert corners.no_survivors > 0, "no sentence lost every value to unary (K = 0)"
    assert corners.role_emptied_by_fixpoint > 0, "no role was emptied by the fixpoint"


def test_network_with_prior_kills_counts_the_unary_rounds():
    """The fold assumes a fresh bind; earlier kills make the engine run the rounds."""
    session = ParserSession(english_grammar(), engine="vector")
    sent = session.tokenize("the dog sees the cat with the telescope")
    template = session.template_for(sent)
    network, reference = template.bind(sent), template.bind(sent)
    for net in (network, reference):
        net.kill(np.arange(0, template.nv, 5))
    stats = session.engine.run(network, compiled=session.compiled)
    counters, _, _ = reference_run(session, reference)
    assert stats.extra["fused_binary_kernel"]
    assert np.array_equal(network.alive_bits, reference.alive_bits)
    assert np.array_equal(network.matrix_bits, reference.matrix_bits)
    for name in COUNTERS:
        assert getattr(stats, name) == counters[name], name


def empty_role_grammar():
    """Words of category ``y`` have no admissible label for role ``n``."""
    return (
        GrammarBuilder("empty-role")
        .labels("A", "B")
        .roles("g", "n")
        .categories("x", "y")
        .table("g", "A", "B")
        .table("n", "A", "B")
        .lexical("n", "y")
        .words({"p": "x", "q": "y", "r": ("x", "y")})
        .constraint("u", "(if (eq (lab x) A) (eq (mod x) nil))")
        .constraint("b", "(if (and (eq (lab x) B) (eq (lab y) B)) (lt (pos x) (pos y)))")
        .build()
    )


@pytest.mark.parametrize("words", [["p", "q"], ["q", "p", "p"], ["r", "q"], ["p", "p"]])
def test_structurally_empty_role(words):
    grammar = empty_role_grammar()
    session = ParserSession(grammar, engine="vector")
    has_empty = session.template_for(words).has_empty_roles
    assert has_empty == ("q" in words)
    result = check_fused(grammar, words, Corners())
    if has_empty:
        assert not result.locally_consistent
        assert not result.network.alive.any()


def binary_only_grammar():
    """Binary constraints and no unary one: every value survives (K = NV)."""
    return (
        GrammarBuilder("binary-only")
        .labels("A", "B")
        .roles("g", "n")
        .categories("x", "y")
        .table("g", "A", "B")
        .table("n", "A", "B")
        .words({"p": "x", "q": "y", "r": ("x", "y")})
        .constraint("b", "(if (and (eq (lab x) B) (eq (lab y) B)) (lt (pos x) (pos y)))")
        .constraint("c", "(if (eq (mod x) (pos y)) (eq (lab y) A))")
        .build()
    )


def test_grammar_without_unary_constraints_keeps_every_value():
    grammar = binary_only_grammar()
    assert not grammar.unary_constraints and grammar.binary_constraints
    corners = Corners()
    for words in (["p"], ["p", "q"], ["r", "q", "p"], ["q", "r", "r", "p"]):
        check_fused(grammar, words, corners)
    assert corners.all_survive == corners.parses == 4


def unary_only_grammar():
    """One word ``w`` and one unary constraint: ``masks.fused is None``."""
    return (
        GrammarBuilder("unary-only")
        .labels("A", "B")
        .roles("g")
        .categories("x")
        .table("g", "A", "B")
        .word("w", "x")
        .constraint("u", "(if (eq (lab x) A) (eq (mod x) nil))")
        .build()
    )


def test_grammar_without_binary_constraints_keeps_the_unfused_path():
    grammar = unary_only_grammar()
    session = ParserSession(grammar, engine="vector")
    assert session.template_for(["w", "w"]).vector_masks(session.compiled).fused is None
    for words in (["w"], ["w", "w"], ["w", "w", "w"]):
        check_fused(grammar, words, Corners())


@pytest.mark.sanitize
def test_fused_path_under_sanitizer(sanitized):
    grammar = english_grammar()
    rng = random.Random(1)
    corners = Corners()
    for _ in range(6):
        check_fused(grammar, random_sentence(rng), corners)
    for seed in range(20):
        rng = random.Random(seed)
        grammar = random_grammar(rng)
        check_fused(grammar, random_sentence_for(grammar, rng, max_len=4), corners)
    assert not sanitized.diagnostics()
