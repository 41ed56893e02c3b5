"""MEM — the packed core's footprint: bytes per network, cache bytes, latency.

The bit-packed execution core stores the O(n^4) arc matrices 8 bits per
byte with byte-aligned role segments (see ``repro.network.bitset``), so
a settled network's mutable state shrinks by roughly the packing factor
against a byte-per-bool representation.

This bench parses same-shape batches at n = 4, 7, 10 (English grammar)
through the packed ``vector`` engine and records, per length:

* resident bytes of one settled network's mutable state
  (``stats.extra["network_bytes"]``);
* the byte-per-bool footprint of the same network, which is exactly
  ``NV + NV^2`` bytes (one byte per alive flag and per matrix entry),
  and the ratio of the two;
* bytes pinned by the session's template cache;
* parse latency, best-of-``REPEATS`` over a warmed session.

The reduction grows with n (the packed row overhead is per *role*, so
short sentences amortize it worst) and must reach at least 4x by
n = 10.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_memory.py [--quick]

which writes ``BENCH_memory.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import ParserSession
from repro.analysis.host import host_metadata
from repro.grammar.builtin.english import english_grammar
from repro.workloads import sentence_of_length

LENGTHS = (4, 7, 10)
BATCH = 8
REPEATS = 3


def measure(n: int, *, batch: int = BATCH, repeats: int = REPEATS) -> dict:
    """Per-network bytes, cache bytes, and best-of latency at length *n*."""
    session = ParserSession(english_grammar(), engine="vector")
    words = sentence_of_length(n)
    result = session.parse(words)  # warm the template cache
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            result = session.parse(words)
        best = min(best, (time.perf_counter() - start) / batch)
    nv = result.network.nv
    network_bytes = result.stats.extra["network_bytes"]
    bool_network_bytes = nv + nv * nv
    return {
        "n": n,
        "nv": nv,
        "network_bytes": network_bytes,
        "bool_network_bytes": bool_network_bytes,
        "memory_reduction": round(bool_network_bytes / network_bytes, 2),
        "template_cache_bytes": session.cached_bytes(),
        "latency_ms": round(best * 1000, 3),
        "sentences_per_s": round(1.0 / best, 1),
    }


def run_bench(*, batch: int = BATCH, repeats: int = REPEATS) -> dict:
    return {
        "bench": "memory",
        "host": host_metadata(),
        "grammar": "english",
        "engine": "vector",
        "batch": batch,
        "repeats": repeats,
        "results": [measure(n, batch=batch, repeats=repeats) for n in LENGTHS],
    }


def test_memory(report):
    """MEM: packed footprint against the byte-per-bool size, vector engine."""
    data = run_bench()
    report(
        "Memory: packed network vs its byte-per-bool size (NV + NV^2), english",
        ["n", "NV", "packed B", "bool B", "reduction", "cache B", "ms"],
        [
            [r["n"], r["nv"], r["network_bytes"], r["bool_network_bytes"],
             f"{r['memory_reduction']:.2f}x", r["template_cache_bytes"], r["latency_ms"]]
            for r in data["results"]
        ],
        notes="Reduction grows with n: packed row overhead is per role, "
        "byte-per-bool cost is per matrix entry.",
    )
    at_10 = next(r for r in data["results"] if r["n"] == 10)
    # The packed core's acceptance bar: >= 4x smaller networks at n = 10.
    assert at_10["memory_reduction"] >= 4.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller load (CI smoke + artifact)"
    )
    args = parser.parse_args()
    record = run_bench(batch=4 if args.quick else BATCH,
                       repeats=2 if args.quick else REPEATS)
    out = Path(__file__).resolve().parents[1] / "BENCH_memory.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for r in record["results"]:
        print(
            f"n={r['n']:2d}  NV={r['nv']:3d}  packed {r['network_bytes']:7d}B  "
            f"bool {r['bool_network_bytes']:7d}B  "
            f"reduction {r['memory_reduction']:.2f}x  "
            f"{r['latency_ms']:.3f} ms"
        )
    print(f"wrote {out}")
