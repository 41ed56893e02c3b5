"""BMM — the shared kernel core measured: microbench + both parsers on it.

The kernel extraction's claims, in falsifiability order:

* **Bit-identity** (always checkable, gated before any timing):

  - the four-Russians product, the bit-plane (``bool @ bool``) product,
    the compiled ``native`` product (when the host can build it) and
    the O(m·k·n) broadcast oracle agree on every microbench operand;
  - a CDG parse on every kernel backend settles to the same packed
    network and verdict as the serial engine, word for word;
  - the packed fence-matrix CYK and the pre-kernel set-based chart
    agree on the accepted flag, every chart cell, and the operation
    count.

  A record whose identity sweep fails is written with ``ok: false``
  and no timing section is trusted (the standalone runner exits 1).

* **Kernel throughput** (host-relative): per matrix size, best-of
  wall-clock of the four-Russians kernel, the compiled ``native``
  kernel (when the host can build it) and the broadcast oracle.  The
  oracle materializes an m·k·n intermediate, so full runs cap its size
  and the record says so (``naive_capped_at``) instead of silently
  claiming coverage.

* **End-to-end** (host-relative): the same sentence through a CDG
  :class:`~repro.pipeline.session.ParserSession` per kernel backend,
  and through packed CYK per backend versus the set-based chart — one
  table showing both parsers riding the one kernel core.

All timings are single-core wall clock; the record embeds
:func:`repro.analysis.host.host_metadata` so numbers are read against
the host that produced them, and no cross-host scaling claim is made.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python -m repro bench-bmm [--quick]

which writes ``BENCH_bmm.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.host import host_metadata
from repro.kernels import bitops
from repro.kernels.backend import KernelBackend, create_backend
from repro.kernels.bmm import bmm_four_russians, bmm_planes, bmm_reference

#: Microbench operand shapes (m, k, n).  Deliberately not all square
#: and not all word-aligned (the padding discipline is part of what is
#: being timed).
SIZES = (
    (64, 64, 64),
    (96, 96, 96),
    (128, 128, 128),
    (192, 192, 192),
    (250, 250, 250),
    (384, 384, 384),
    (512, 512, 512),
)
QUICK_SIZES = ((64, 64, 64), (130, 130, 130))

#: Largest dimension product the broadcast oracle is timed at (its
#: m·k·n boolean intermediate is the memory hog).
NAIVE_CAP = 256**3

REPEATS = 3
QUICK_REPEATS = 2


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _micro_identity_and_timing(
    sizes, repeats: int, native: "KernelBackend | None"
) -> tuple[bool, list[dict]]:
    rows = []
    ok = True
    rng = np.random.default_rng(8)
    for m, k, n in sizes:
        a_plane = rng.random((m, k)) < 0.3
        b_plane = rng.random((k, n)) < 0.3
        a_bits = bitops.pack_bits(a_plane)
        b_bits = bitops.pack_bits(b_plane)
        expected = bmm_reference(a_plane, b_plane)
        four = bmm_four_russians(a_bits, b_bits)
        identical = bool(
            np.array_equal(bitops.unpack_bits(four, n), expected)
            and np.array_equal(four, bmm_planes(a_bits, b_bits))
        )
        row = {
            "shape": [m, k, n],
            "four_russians_ms": round(
                _best_of(lambda: bmm_four_russians(a_bits, b_bits), repeats) * 1e3, 4
            ),
        }
        if native is not None:
            identical = identical and bool(
                np.array_equal(native.bmm(a_bits, b_bits), four)
            )
            row["native_ms"] = round(
                _best_of(lambda: native.bmm(a_bits, b_bits), repeats) * 1e3, 4
            )
        row["identical"] = identical
        ok = ok and identical
        if m * k * n <= NAIVE_CAP:
            row["naive_ms"] = round(
                _best_of(lambda: bmm_reference(a_plane, b_plane), repeats) * 1e3, 4
            )
        rows.append(row)
    return ok, rows


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


def _cfg_end_to_end(
    n_words: int, repeats: int, backends: tuple[str, ...]
) -> tuple[bool, dict]:
    from repro.cfg import cyk_parse, cyk_parse_sets, english_cfg, to_cnf
    from repro.workloads import sentence_of_length

    cnf = to_cnf(english_cfg())
    words = sentence_of_length(n_words)
    oracle = cyk_parse_sets(cnf, words)
    identical = True
    timings = {}
    for backend in backends:
        packed = cyk_parse(cnf, words, backend=backend)
        identical = identical and bool(
            packed.accepted == oracle.accepted
            and packed.chart_sets == oracle.chart_sets
            and packed.split_operations == oracle.split_operations
        )
        timings[backend] = round(
            _best_of(lambda: cyk_parse(cnf, words, backend=backend), repeats) * 1e3, 4
        )
    timings["sets-oracle"] = round(
        _best_of(lambda: cyk_parse_sets(cnf, words), repeats) * 1e3, 4
    )
    return identical, {
        "sentence_words": n_words,
        "accepted": oracle.accepted,
        "backends": list(backends),
        "identical": identical,
        "latency_ms": timings,
    }


def run_bench(*, quick: bool = False, out_path: "Path | str | None" = None) -> dict:
    """Run the identity-gated kernel benchmark; optionally write JSON."""
    sizes = QUICK_SIZES if quick else SIZES
    repeats = QUICK_REPEATS if quick else REPEATS
    # Where native cannot build, the request degrades to packed with
    # one warning, and only packed is timed.
    native: "KernelBackend | None" = create_backend("native")
    if native.name != "native":
        native = None
    backends = ("packed",) if native is None else ("packed", "native")
    micro_ok, micro = _micro_identity_and_timing(sizes, repeats, native)
    cdg_ok, cdg = _cdg_end_to_end(7 if quick else 10, repeats, 4, backends)
    cfg_ok, cfg = _cfg_end_to_end(8 if quick else 12, repeats, backends)
    record = {
        "bench": "bmm",
        "quick": quick,
        "host": host_metadata(),
        "backends": list(backends),
        "bit_identity": {
            "ok": micro_ok and cdg_ok and cfg_ok,
            "micro": micro_ok,
            "cdg_backends_vs_serial": cdg_ok,
            "cyk_packed_vs_sets": cfg_ok,
        },
        "micro": micro,
        "naive_capped_at": NAIVE_CAP,
        "end_to_end": {"cdg": cdg, "cfg": cfg},
        "notes": (
            "single-core wall clock on the recorded host; bit-identity "
            "asserted before timing; the broadcast oracle is only timed "
            "up to naive_capped_at elements"
        ),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_report(record: dict, out) -> None:
    """Render *record* as the terminal tables the harness snapshots."""
    from repro.analysis import format_table

    has_native = "native" in record["backends"]
    headers = ["shape", "identical", "four-Russians ms"]
    if has_native:
        headers.append("native ms")
    headers.append("naive ms")
    rows = []
    for row in record["micro"]:
        m, k, n = row["shape"]
        line = [f"{m}x{k}x{n}", "yes" if row["identical"] else "NO", row["four_russians_ms"]]
        if has_native:
            line.append(row["native_ms"])
        line.append(row.get("naive_ms", "capped"))
        rows.append(line)
    print(
        format_table(
            headers,
            rows,
            title=f"BMM microbench ({record['host']['cpu_count']} CPU host)",
        ),
        file=out,
    )
    cdg = record["end_to_end"]["cdg"]
    cfg = record["end_to_end"]["cfg"]
    backends = record["backends"]
    parser_headers = ["parser", "identical", *[f"{b} ms" for b in backends], "oracle ms"]
    print(
        format_table(
            parser_headers,
            [
                [
                    f"CDG n={cdg['sentence_words']} ({cdg['engine']} vs serial)",
                    "yes" if cdg["identical"] else "NO",
                    *[cdg["latency_ms"][b] for b in backends],
                    "-",
                ],
                [
                    f"CFG/CYK n={cfg['sentence_words']}",
                    "yes" if cfg["identical"] else "NO",
                    *[cfg["latency_ms"][b] for b in backends],
                    cfg["latency_ms"]["sets-oracle"],
                ],
            ],
            title="Both parsers on the shared kernel core",
        ),
        file=out,
    )
    print(record["notes"], file=out)
