"""SERVE — service throughput under shape-interleaved concurrent load.

The serving layer's claim is architectural, exactly like the pipeline's:
the :class:`ParseService` computes bit-identical results to bare
``ParserSession.parse`` calls in arrival order, but its *shape-batched
scheduler* reorders a shape-interleaved arrival stream into
single-shape batches, so each batch binds one cached
:class:`NetworkTemplate`.  Under the adversarial
(and realistic) serving condition — more live sentence shapes than the
bounded per-session template LRU holds — arrival-order processing
thrashes the cache and rebuilds a template for nearly every sentence,
while the service's batches are near-perfect cache hits.  That
scheduling win is what this bench measures; it holds even on a single
core.  On multi-core hosts the worker pool adds parallel speedup on top
(numpy releases the GIL inside its ufunc loops), which this container
(1 CPU) cannot show.

Two load modes over the same workload, per worker count (1/2/4):

* **open loop** — every request submitted up front (a burst at the
  queue bound), then gathered; plus a bit-identical comparison of every
  result against the single-session baseline.
* **closed loop** — ``2 x workers`` producer threads, each submitting
  and waiting one request at a time; latency percentiles come from the
  service's own metrics.  Closed-loop concurrency is bounded by the
  producer count, so batches barely form; the service runs in latency
  mode (``max_linger=0``) and the interesting numbers are the
  percentiles, not the throughput.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]

which writes ``BENCH_service.json`` at the repo root.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro import ParserSession
from repro.analysis.host import host_metadata
from repro.grammar.builtin.english import english_grammar
from repro.serve import ParseService
from repro.workloads import sentence_of_length

#: Distinct sentence shapes interleaved in the arrival stream (lengths
#: 3..10) against a deliberately smaller per-session template cache:
#: the long-tail-of-shapes serving condition.
SHAPE_LENGTHS = tuple(range(3, 11))
TEMPLATE_CACHE = 4
REQUESTS = 160
MAX_BATCH = 20
LINGER = 0.005
WORKER_COUNTS = (1, 2, 4)
REPEATS = 2


def workload(n_requests: int) -> list[list[str]]:
    """A round-robin shape-interleaved request stream."""
    return [
        sentence_of_length(SHAPE_LENGTHS[i % len(SHAPE_LENGTHS)])
        for i in range(n_requests)
    ]


def service_for(workers: int, n_requests: int, linger: float = LINGER) -> ParseService:
    return ParseService(
        english_grammar(),
        engine="vector",
        workers=workers,
        max_queue=n_requests,
        max_batch_size=MAX_BATCH,
        max_linger=linger,
        admission="block",
        template_cache_size=TEMPLATE_CACHE,
    )


def run_baseline(sentences: list[list[str]]) -> tuple[list, float]:
    """Arrival-order ``parse`` calls on one session with the same cache.

    Not ``parse_many``: it groups sentences by shape, which is the
    service's own scheduling win and would leave nothing to compare.
    """
    best = float("inf")
    results = None
    for _ in range(REPEATS):
        session = ParserSession(
            english_grammar(), engine="vector", template_cache_size=TEMPLATE_CACHE
        )
        start = time.perf_counter()
        results = [session.parse(s) for s in sentences]
        best = min(best, time.perf_counter() - start)
    return results, len(sentences) / best


def assert_bit_identical(served, baseline) -> None:
    for warm, cold in zip(served, baseline, strict=True):
        assert np.array_equal(warm.network.alive, cold.network.alive)
        assert np.array_equal(warm.network.matrix, cold.network.matrix)
        assert warm.locally_consistent == cold.locally_consistent
        assert warm.ambiguous == cold.ambiguous


def run_open_loop(workers: int, sentences: list[list[str]], baseline_results) -> dict:
    best = float("inf")
    snapshot = None
    for _ in range(REPEATS):
        with service_for(workers, len(sentences)) as service:
            start = time.perf_counter()
            futures = [service.submit(words) for words in sentences]
            served = [future.result() for future in futures]
            service.drain()
            best = min(best, time.perf_counter() - start)
            snapshot = service.snapshot()
        assert_bit_identical(served, baseline_results)
    cache = snapshot["service"]["template_cache"]
    return {
        "workers": workers,
        "sps": round(len(sentences) / best, 1),
        "batch_size_mean": round(snapshot["histograms"]["batch_size"]["mean"], 1),
        "template_hits": cache["hits"],
        "template_misses": cache["misses"],
        "counters": snapshot["counters"],
    }


def run_closed_loop(workers: int, sentences: list[list[str]]) -> dict:
    producers = workers * 2
    best = float("inf")
    snapshot = None
    for _ in range(REPEATS):
        # Latency mode: with <= `producers` requests outstanding there
        # is nothing to linger for.
        with service_for(workers, len(sentences), linger=0.0) as service:
            slices = [sentences[i::producers] for i in range(producers)]

            def produce(slice_):
                for words in slice_:
                    service.parse(words)

            threads = [
                threading.Thread(target=produce, args=(s,), daemon=True) for s in slices
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            best = min(best, time.perf_counter() - start)
            snapshot = service.snapshot()
    latency = snapshot["histograms"]["latency_seconds"]
    return {
        "workers": workers,
        "producers": producers,
        "sps": round(len(sentences) / best, 1),
        "latency_ms_p50": round(latency["p50"] * 1000, 2),
        "latency_ms_p99": round(latency["p99"] * 1000, 2),
    }


def run_bench(n_requests: int = REQUESTS) -> dict:
    sentences = workload(n_requests)
    baseline_results, baseline_sps = run_baseline(sentences)
    open_loop = []
    closed_loop = []
    for workers in WORKER_COUNTS:
        row = run_open_loop(workers, sentences, baseline_results)
        row["speedup_vs_baseline"] = round(row["sps"] / baseline_sps, 2)
        open_loop.append(row)
        closed = run_closed_loop(workers, sentences)
        closed["speedup_vs_baseline"] = round(closed["sps"] / baseline_sps, 2)
        closed_loop.append(closed)
    return {
        "bench": "service",
        "host": host_metadata(),
        "grammar": "english",
        "engine": "vector",
        "requests": n_requests,
        "shapes": len(SHAPE_LENGTHS),
        "template_cache_size": TEMPLATE_CACHE,
        "max_batch_size": MAX_BATCH,
        "max_linger_s": LINGER,
        "correctness": "service results bit-identical to ParserSession.parse",
        "baseline": {
            "description": "one ParserSession, arrival order (shape-interleaved)",
            "sps": round(baseline_sps, 1),
        },
        "open_loop": open_loop,
        "closed_loop": closed_loop,
    }


def test_service_throughput(report):
    """SERVE: shape-batched scheduling vs arrival-order baseline."""
    data = run_bench(n_requests=64)
    rows = [
        [r["workers"], r["sps"], f"{r['speedup_vs_baseline']:.2f}x",
         r["batch_size_mean"], f"{r['template_hits']}/{r['template_misses']}"]
        for r in data["open_loop"]
    ]
    report(
        "ParseService (open loop) vs single-session arrival order "
        f"(english, vector, {data['shapes']} shapes, cache {data['template_cache_size']})",
        ["workers", "sents/s", "speedup", "batch mean", "tmpl hits/misses"],
        rows,
        notes=f"baseline {data['baseline']['sps']} sents/s; results bit-identical.",
    )
    # Loose regression floor — the committed record holds the real numbers.
    assert data["open_loop"][0]["speedup_vs_baseline"] > 1.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller load (CI smoke + artifact)"
    )
    args = parser.parse_args()

    record = run_bench(n_requests=64 if args.quick else REQUESTS)
    out = Path(__file__).resolve().parents[1] / "BENCH_service.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"baseline (arrival order): {record['baseline']['sps']:8.1f} sents/s")
    for row in record["open_loop"]:
        print(
            f"open   loop w={row['workers']}: {row['sps']:8.1f} sents/s  "
            f"{row['speedup_vs_baseline']:.2f}x  (batch mean {row['batch_size_mean']})"
        )
    for row in record["closed_loop"]:
        print(
            f"closed loop w={row['workers']}: {row['sps']:8.1f} sents/s  "
            f"{row['speedup_vs_baseline']:.2f}x  (p50 {row['latency_ms_p50']} ms)"
        )
    print(f"wrote {out}")
