"""Seeded inputs for the end-to-end benchmark.

All inputs are generated here, before any timing, from the workload's
seed; the program under test receives only sentences.  The word pools
and the sentence grammar (``NP V [NP] (PP)* [ADV]``) are copied from
``repro.workloads.sentences`` on purpose: a later change to ``src/``
must not be able to change the instrument.

A *skeleton* is a tuple of slot names (``det``, ``adj``, ``noun``,
``vt``, ``vi``, ``prep``, ``adv``).  Every pool word has exactly one
lexical category in the English grammar and the two verb slots share
one, so each skeleton is exactly one sentence shape — one template-cache
key.  The sequence of shapes (and the cluster's arrival schedule) is
part of the workload's definition and does not depend on the seed; the
seed picks only the words.  Constraints see a word only through its
category, so every seed does the same work and two seeds differ only by
noise, while a change keyed on surface words still sees new inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DETS = ("the", "a", "every", "some")
ADJS = ("big", "red", "old", "small", "happy", "quick", "lazy")
NOUNS = ("dog", "cat", "park", "man", "woman", "tree", "bird", "house", "telescope", "computer")
PREPS = ("in", "on", "with", "under", "near")
VERBS_TRANS = ("sees", "likes", "chases")
VERBS_INTRANS = ("runs", "sleeps", "walks")
ADVS = ("quickly", "slowly", "often", "loudly")

POOLS = {
    "det": DETS,
    "adj": ADJS,
    "noun": NOUNS,
    "prep": PREPS,
    "vt": VERBS_TRANS,
    "vi": VERBS_INTRANS,
    "adv": ADVS,
}

#: The reach of ``random_sentence(max_pps=3, max_adjs=2)``.
MAX_ADJS = 2
MAX_PPS = 3

#: warm-mix: two shapes at each length, popularity fixed per length.
WARM_LENGTHS = (6, 8, 10, 12, 14)
WARM_WEIGHTS = (1, 2, 4, 2, 1)
#: Word variants per warm shape; all hit the same cached template.
WARM_VARIANTS = 4

LONG_TAIL_LENGTHS = range(10, 17)
STREAM_LENGTHS = range(6, 15)
#: cluster-open: share of requests drawn from the long-tail shapes.
CLUSTER_COLD_SHARE = 0.05

#: Upper bounds on units per second, used only to size the
#: pre-generated sequences; a run that outpaces one cycles its inputs.
RATE_CAP = {"warm-mix": 4000, "long-tail": 400, "stream-words": 200, "cluster-open": 1000}

WORKLOADS = ("warm-mix", "long-tail", "stream-words", "cluster-open")

Skeleton = tuple[str, ...]


def _noun_phrases() -> list[Skeleton]:
    return [("det",) + ("adj",) * k + ("noun",) for k in range(MAX_ADJS + 1)]


def all_skeletons() -> list[Skeleton]:
    """Every skeleton the sentence grammar reaches, in a fixed order."""
    nps = _noun_phrases()
    out: list[Skeleton] = []
    cores = [s + ("vi",) for s in nps] + [s + ("vt",) + o for s in nps for o in nps]
    for core in cores:
        for n_pp in range(MAX_PPS + 1):
            for pps in itertools.product(nps, repeat=n_pp):
                tail = tuple(itertools.chain.from_iterable(("prep",) + np_ for np_ in pps))
                out.append(core + tail)
                out.append(core + tail + ("adv",))
    return sorted(out)


def skeletons_of_length(lengths) -> list[Skeleton]:
    wanted = set(lengths)
    return [s for s in all_skeletons() if len(s) in wanted]


def warm_skeletons() -> list[Skeleton]:
    """The ten warm-mix shapes: two fixed picks per length."""
    picks: list[Skeleton] = []
    for n in WARM_LENGTHS:
        pool = skeletons_of_length([n])
        picks += [pool[len(pool) // 4], pool[(3 * len(pool)) // 4]]
    return picks


def fill(skeleton: Skeleton, rng: random.Random) -> str:
    """A sentence of *skeleton*'s shape with seeded words."""
    return " ".join(rng.choice(POOLS[slot]) for slot in skeleton)


def shape_rng(workload: str) -> random.Random:
    """The fixed stream behind a workload's shape sequence."""
    return random.Random(f"{workload}/shapes")


def word_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/words/{seed}")


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``warmup`` is parsed untimed before the window.  ``timed`` is the
    unit sequence: sentences for the parse workloads, whole sentences
    (fed word by word) for ``stream-words``.
    """

    workload: str
    seed: int
    warmup: list[str]
    timed: list[str]


def warm_pool(seed: int) -> tuple[list[str], list[float]]:
    """The warm-mix pool and each sentence's draw weight."""
    rng = word_rng("warm-mix", seed)
    sentences: list[str] = []
    weights: list[float] = []
    for index, skeleton in enumerate(warm_skeletons()):
        weight = WARM_WEIGHTS[index // 2] / (2 * WARM_VARIANTS)
        for _ in range(WARM_VARIANTS):
            sentences.append(fill(skeleton, rng))
            weights.append(weight)
    return sentences, weights


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """Generate *workload*'s inputs for a window of *seconds*."""
    count = max(64, int(RATE_CAP[workload] * seconds))
    draws = shape_rng(workload)
    words = word_rng(workload, seed)
    if workload == "warm-mix":
        pool, weights = warm_pool(seed)
        timed = draws.choices(pool, weights, k=count)
        return Inputs(workload, seed, warmup=pool * 3, timed=timed)
    if workload == "long-tail":
        shapes = skeletons_of_length(LONG_TAIL_LENGTHS)
        timed = [fill(draws.choice(shapes), words) for _ in range(count)]
        warmup = [fill(shapes[i], words) for i in range(0, len(shapes), len(shapes) // 8)]
        return Inputs(workload, seed, warmup=warmup, timed=timed)
    if workload == "stream-words":
        shapes = skeletons_of_length(STREAM_LENGTHS)
        timed = [fill(draws.choice(shapes), words) for _ in range(count)]
        warmup = [fill(shapes[i], words) for i in range(0, len(shapes), len(shapes) // 4)]
        return Inputs(workload, seed, warmup=warmup, timed=timed)
    if workload == "cluster-open":
        pool, weights = warm_pool(seed)
        cold = skeletons_of_length(LONG_TAIL_LENGTHS)
        timed = [
            fill(draws.choice(cold), words)
            if draws.random() < CLUSTER_COLD_SHARE
            else draws.choices(pool, weights)[0]
            for _ in range(count)
        ]
        return Inputs(workload, seed, warmup=pool * 3, timed=timed)
    raise ValueError(f"unknown workload {workload!r}")
