"""PARALLEL — process-pool worker scaling.

A :class:`ParallelSession` fans ``parse_many`` over worker processes
that attach each shape's template from shared memory (exported once,
never pickled per task).  Scaling with worker count needs actual cores:
on a 1-CPU host the record documents the dispatch overhead honestly
rather than showing the multi-core win (results stay bit-identical
regardless — that is asserted here).  The ratio is a scaling *claim*
only when the host has a core per worker
(:func:`repro.analysis.host.scaling_claim_allowed`).

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]

which writes ``BENCH_parallel.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import ParallelSession, ParserSession
from repro.analysis.host import host_metadata, scaling_claim_allowed
from repro.grammar.builtin.english import english_grammar
from repro.workloads import sentence_of_length

#: Shape-interleaved stream for the process-scaling runs.
SHAPE_LENGTHS = tuple(range(3, 11))
REQUESTS = 96
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3


def assert_bit_identical(a, b) -> None:
    for left, right in zip(a, b, strict=True):
        assert np.array_equal(left.network.alive, right.network.alive)
        assert np.array_equal(left.network.matrix, right.network.matrix)
        assert left.locally_consistent == right.locally_consistent
        assert left.ambiguous == right.ambiguous


def _best_sps(run, n_items: int, repeats: int = REPEATS) -> tuple[list, float]:
    best = float("inf")
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = run()
        best = min(best, time.perf_counter() - start)
    return results, n_items / best


def run_process_scaling(n_requests: int = REQUESTS) -> dict:
    """ParallelSession worker sweep vs one single-process session."""
    grammar = english_grammar()
    sentences = [
        sentence_of_length(SHAPE_LENGTHS[i % len(SHAPE_LENGTHS)])
        for i in range(n_requests)
    ]
    single = ParserSession(grammar, engine="vector")
    baseline_results, baseline_sps = _best_sps(
        lambda: single.parse_many(sentences), n_requests
    )
    rows = []
    for workers in WORKER_COUNTS:
        with ParallelSession(grammar, engine="vector", workers=workers) as session:
            results, sps = _best_sps(lambda: session.parse_many(sentences), n_requests)
            shared = session.shared_bytes()
        assert_bit_identical(results, baseline_results)
        rows.append(
            {
                "workers": workers,
                "sps": round(sps, 1),
                "speedup_vs_single": round(sps / baseline_sps, 2),
                # Only a *claim* when the host has the cores to back it;
                # otherwise the ratio documents dispatch overhead.
                "scaling_claim": scaling_claim_allowed(workers),
                "shared_bytes": shared,
            }
        )
    return {
        "baseline_sps": round(baseline_sps, 1),
        "requests": n_requests,
        "shapes": len(SHAPE_LENGTHS),
        "rows": rows,
    }


def run_bench(n_requests: int = REQUESTS) -> dict:
    cpus = os.cpu_count() or 1
    return {
        "bench": "parallel",
        "grammar": "english",
        "engine": "vector",
        "host": host_metadata(),
        "host_cpus": cpus,
        "correctness": "ParallelSession results bit-identical to single-process ParserSession",
        "note": (
            f"process scaling needs real cores: this host has {cpus} CPU(s), "
            "so worker counts beyond the core count measure dispatch overhead, "
            "not parallel speedup"
        ),
        "process_scaling": run_process_scaling(n_requests),
    }


def test_process_scaling(report):
    """PARALLEL: ParallelSession worker sweep against one session."""
    data = run_bench(n_requests=32)
    scaling = data["process_scaling"]
    report(
        f"ParallelSession worker sweep ({data['host_cpus']} CPU host)",
        ["workers", "sents/s", "vs single-process"],
        [
            [r["workers"], r["sps"], f"{r['speedup_vs_single']:.2f}x"]
            for r in scaling["rows"]
        ],
        notes=f"single-process baseline {scaling['baseline_sps']} sents/s; " + data["note"],
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller load (CI smoke + artifact)"
    )
    args = parser.parse_args()

    record = run_bench(n_requests=32 if args.quick else REQUESTS)
    out = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    scaling = record["process_scaling"]
    print(f"single-process baseline: {scaling['baseline_sps']:8.1f} sents/s")
    for row in scaling["rows"]:
        if row["scaling_claim"]:
            ratio = f"({row['speedup_vs_single']:.2f}x vs single)"
        else:
            # Refuse the "Nx" claim on a host without the cores for it.
            ratio = (
                f"(ratio {row['speedup_vs_single']:.2f} on a "
                f"{record['host_cpus']}-CPU host: dispatch overhead, "
                "not a scaling claim)"
            )
        print(f"workers={row['workers']}: {row['sps']:8.1f} sents/s  {ratio}")
    print(f"wrote {out}  (host CPUs: {record['host_cpus']})")
