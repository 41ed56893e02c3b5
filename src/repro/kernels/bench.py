"""Kernels — both kernel backends measured end to end, identity first.

The claims, in falsifiability order:

* **Bit-identity** (always checkable, gated before any timing): a CDG
  parse on every kernel backend settles to the same packed network and
  verdict as the serial engine, word for word.  A record whose identity
  check fails is written with ``ok: false`` and no timing section is
  trusted (the standalone runner exits 1).

* **End-to-end latency** (host-relative): the same sentence through a
  warm :class:`~repro.pipeline.session.ParserSession` on ``packed`` and,
  when the host can build it, ``native`` — best-of wall clock per parse.

All timings are single-core wall clock; the record embeds
:func:`repro.analysis.host.host_metadata` so numbers are read against
the host that produced them, and no cross-host scaling claim is made.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python -m repro bench-kernels [--quick]

which writes ``BENCH_kernels.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.host import host_metadata
from repro.kernels.backend import create_backend

REPEATS = 3
QUICK_REPEATS = 2


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cdg_end_to_end(
    n_words: int, repeats: int, batch: int, backends: tuple[str, ...]
) -> tuple[bool, dict]:
    from repro.grammar.builtin.english import english_grammar
    from repro.pipeline.session import ParserSession
    from repro.workloads import sentence_of_length

    grammar = english_grammar()
    words = sentence_of_length(n_words)
    reference = ParserSession(grammar, engine="serial").parse(words)
    identical = True
    timings = {}
    for backend in backends:
        session = ParserSession(grammar, engine="vector", backend=backend)
        result = session.parse(words)  # warm the template cache
        identical = identical and bool(
            result.locally_consistent == reference.locally_consistent
            and np.array_equal(result.network.alive_bits, reference.network.alive_bits)
            and np.array_equal(result.network.matrix_bits, reference.network.matrix_bits)
        )
        timings[backend] = round(
            _best_of(lambda: [session.parse(words) for _ in range(batch)], repeats)
            / batch * 1e3,
            4,
        )
    return identical, {
        "sentence_words": n_words,
        "engine": "vector",
        "reference_engine": "serial",
        "backends": list(backends),
        "identical": identical,
        "latency_ms": timings,
    }


def run_bench(*, quick: bool = False, out_path: "Path | str | None" = None) -> dict:
    """Run the identity-gated kernel benchmark; optionally write JSON."""
    repeats = QUICK_REPEATS if quick else REPEATS
    # Where native cannot build, the request degrades to packed with
    # one warning, and only packed is timed.
    native_available = create_backend("native").name == "native"
    backends = ("packed", "native") if native_available else ("packed",)
    cdg_ok, cdg = _cdg_end_to_end(7 if quick else 10, repeats, 4, backends)
    record = {
        "bench": "kernels",
        "quick": quick,
        "host": host_metadata(),
        "backends": list(backends),
        "bit_identity": {"ok": cdg_ok, "cdg_backends_vs_serial": cdg_ok},
        "end_to_end": {"cdg": cdg},
        "notes": (
            "single-core wall clock on the recorded host; bit-identity "
            "asserted before timing"
        ),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_report(record: dict, out) -> None:
    """Render *record* as the terminal table the harness snapshots."""
    from repro.analysis import format_table

    cdg = record["end_to_end"]["cdg"]
    backends = record["backends"]
    print(
        format_table(
            ["parser", "identical", *[f"{b} ms" for b in backends]],
            [
                [
                    f"CDG n={cdg['sentence_words']} ({cdg['engine']} vs serial)",
                    "yes" if cdg["identical"] else "NO",
                    *[cdg["latency_ms"][b] for b in backends],
                ]
            ],
            title=f"Kernel backends end to end ({record['host']['cpu_count']} CPU host)",
        ),
        file=out,
    )
    print(record["notes"], file=out)
