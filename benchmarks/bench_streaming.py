"""STREAMING — word-at-a-time extension vs full reparse per prefix.

The incremental streaming core's claim: growing a parsed prefix by one
word (``StreamingParse.extend``) costs less than reparsing the grown
prefix from scratch, because the network template is *prefix-extended*:
the cached constraint masks of the k-word shape are scattered into the
(k+1)-word layout and only the new word's cross strips are evaluated,
so streaming an n-word sentence performs one cumulative build
(``full=1, extended=n-1``).  Each step then binds that template and
runs the session's engine, as a parse would.

Eliminations are monotone and the consistency sweep deterministic, so
the streamed settled network must be **bit-identical** to a fresh parse
of every prefix — asserted here before any timing is recorded.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--quick]

which writes ``BENCH_streaming.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import ParserSession
from repro.analysis.host import host_metadata
from repro.grammar.builtin.english import english_grammar
from repro.workloads import sentence_of_length

#: Sentence lengths: the paper's sweep ends at 10 words, where the
#: O(NV^2) template build and binary sweep dominate a fresh parse.
LENGTHS = (4, 7, 10)
REPEATS = 5


def assert_prefixes_identical(streamed, fresh, n: int) -> None:
    for k, (left, right) in enumerate(zip(streamed, fresh, strict=True), start=1):
        assert np.array_equal(left.network.alive_bits, right.network.alive_bits), (n, k)
        assert np.array_equal(left.network.matrix_bits, right.network.matrix_bits), (n, k)
        assert left.locally_consistent == right.locally_consistent
        assert left.ambiguous == right.ambiguous


def _time_cold(make_run, repeats: int) -> tuple[list, float]:
    """Best-of-*repeats* where every repeat gets a fresh (cold) session.

    Session construction (grammar compile) happens outside the timed
    region — both sides pay it identically — while template builds land
    inside it: in a streaming setting every longer prefix is a *novel
    shape* (the shape key is the category-set tuple, which grows with
    the sentence), so no realistic cache is ever warm for the next
    prefix, and the build cost is part of the honest per-token price.
    """
    best = float("inf")
    results = None
    for _ in range(repeats):
        run = make_run()
        start = time.perf_counter()
        results = run()
        best = min(best, time.perf_counter() - start)
    return results, best


def _time_warm(run, repeats: int) -> float:
    run()  # warm the template chain
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_streaming(repeats: int = REPEATS) -> list[dict]:
    grammar = english_grammar()
    rows = []
    for n in LENGTHS:
        words = sentence_of_length(n)

        # Build accounting on a cold session: the acceptance bar is one
        # cumulative build per stream (full=1, extended=n-1, total <= n).
        cold = ParserSession(grammar, engine="vector")
        cold_results = list(iter_stream(cold, words))
        builds = cold.template_builds()
        assert builds["full"] == 1 and builds["extended"] == n - 1, builds

        # Correctness gate: every streamed prefix == a fresh full parse.
        reference = ParserSession(grammar, engine="vector")
        fresh_results = [reference.parse(words[:k]) for k in range(1, n + 1)]
        assert_prefixes_identical(cold_results, fresh_results, n)

        def stream_run(w=words):
            session = ParserSession(grammar, engine="vector")
            return lambda: list(iter_stream(session, w))

        def reparse_run(w=words, m=n):
            session = ParserSession(grammar, engine="vector")
            return lambda: [session.parse(w[:k]) for k in range(1, m + 1)]

        # Headline: cold per-prefix cost (every prefix a novel shape).
        _, stream_best = _time_cold(stream_run, repeats)
        _, reparse_best = _time_cold(reparse_run, repeats)
        # Secondary, for honesty: with templates already cached the
        # streamed fixpoint is identical work by construction (the
        # carried state is bit-identical to the fresh post-mask state),
        # so streaming pays a small embedding overhead and cannot win.
        warm_stream = _time_warm(stream_run(), repeats)
        warm_reparse = _time_warm(reparse_run(), repeats)
        rows.append(
            {
                "n_words": n,
                "template_builds": builds,
                "extend_us_per_token": round(stream_best / n * 1e6, 1),
                "reparse_us_per_prefix": round(reparse_best / n * 1e6, 1),
                "speedup": round(reparse_best / stream_best, 2),
                "warm_extend_us_per_token": round(warm_stream / n * 1e6, 1),
                "warm_reparse_us_per_prefix": round(warm_reparse / n * 1e6, 1),
            }
        )
    return rows


def iter_stream(session: ParserSession, words) -> "list":
    stream = session.stream()
    return [stream.extend(word) for word in words]


def run_bench(repeats: int = REPEATS) -> dict:
    return {
        "bench": "streaming",
        "host": host_metadata(),
        "grammar": "english",
        "engine": "vector",
        "correctness": (
            "every streamed prefix (network bits, verdict, ambiguity) "
            "bit-identical to a fresh full parse of the same words; "
            "asserted before timing"
        ),
        "note": (
            "amortized cost of growing a live parse by one word vs "
            "reparsing each prefix from scratch; cold sessions (headline): "
            "every longer prefix is a novel shape, so the reparse side "
            "pays a full O(NV^2) template+mask build per prefix while the "
            "stream pays one prefix extension — template_builds records "
            "that (1 full + n-1 extended).  warm_* columns show the "
            "cached-template steady state, where the carried state is "
            "bit-identical to the fresh post-mask state and the streamed "
            "fixpoint is therefore identical work plus a small embedding "
            "overhead"
        ),
        "rows": run_streaming(repeats),
    }


def test_streaming_amortized_vs_reparse(report):
    """STREAMING: per-token extension vs from-scratch prefix reparse."""
    data = run_bench(repeats=3)
    report(
        "Streaming extend vs full reparse (english, packed vector)",
        ["n words", "extend us/token", "reparse us/prefix", "speedup", "builds"],
        [
            [
                r["n_words"], r["extend_us_per_token"], r["reparse_us_per_prefix"],
                f"{r['speedup']:.2f}x",
                f"{r['template_builds']['full']}+{r['template_builds']['extended']}ext",
            ]
            for r in data["rows"]
        ],
        notes="prefixes bit-identical to fresh parses (asserted before timing).",
    )
    # Regression floor: where the per-prefix rebuild is largest (n=10),
    # resuming must beat reparsing.  The committed record holds numbers.
    by_n = {r["n_words"]: r for r in data["rows"]}
    assert by_n[10]["speedup"] > 1.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller load (CI smoke + artifact)"
    )
    args = parser.parse_args()

    record = run_bench(repeats=3 if args.quick else REPEATS)
    out = Path(__file__).resolve().parents[1] / "BENCH_streaming.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for row in record["rows"]:
        print(
            f"n={row['n_words']:>2}: extend {row['extend_us_per_token']:>8.1f} us/token  "
            f"reparse {row['reparse_us_per_prefix']:>8.1f} us/prefix  "
            f"speedup {row['speedup']:.2f}x  "
            f"builds {row['template_builds']['full']}+{row['template_builds']['extended']}ext"
        )
    print(f"wrote {out}")
