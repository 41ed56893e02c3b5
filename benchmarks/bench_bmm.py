"""BMM — one kernel core under both parsers: identity gate, then timing.

Thin harness over :mod:`repro.kernels.bench` (the logic lives in the
package so ``repro bench-bmm`` shares it):

* microbench — the four-Russians packed product vs the O(m·k·n)
  broadcast oracle, plus the compiled ``native`` kernel when a C
  toolchain is present — per operand shape, each agreeing bit for bit
  (and with the ``bool @ bool`` bit-plane product) before any clock
  starts;
* end-to-end — the same sentence through a CDG ``ParserSession`` on
  every available kernel backend (settled networks identical to the
  serial engine's), and through CYK on each backend vs the set-based
  chart oracle (identical charts and operation counts).

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_bmm.py [--quick]

which writes ``BENCH_bmm.json`` at the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.kernels.bench import print_report, run_bench


def test_bmm_bench(report):
    """BMM: identity-gated kernel microbench + both parsers end to end."""
    record = run_bench(quick=True)
    assert record["bit_identity"]["ok"], record["bit_identity"]
    backends = record["backends"]
    kernels = ["four_russians", *(["native"] if "native" in backends else [])]
    rows = [
        [
            "x".join(str(d) for d in row["shape"]),
            *[row[f"{kernel}_ms"] for kernel in kernels],
            row.get("naive_ms", "capped"),
        ]
        for row in record["micro"]
    ]
    report(
        f"BMM microbench (quick, {record['host']['cpu_count']} CPU host)",
        ["shape", *[f"{kernel} ms" for kernel in kernels], "naive ms"],
        rows,
        notes=record["notes"],
    )
    cdg = record["end_to_end"]["cdg"]
    cfg = record["end_to_end"]["cfg"]
    assert cdg["identical"] and cfg["identical"]
    report(
        "Both parsers on the shared kernel core (quick)",
        ["parser", *[f"{b} ms" for b in backends], "oracle ms"],
        [
            [f"CDG n={cdg['sentence_words']}",
             *[cdg["latency_ms"][b] for b in backends], "-"],
            [f"CFG/CYK n={cfg['sentence_words']}",
             *[cfg["latency_ms"][b] for b in backends], cfg["latency_ms"]["sets-oracle"]],
        ],
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small operands and short loops (CI smoke + artifact)")
    args = parser.parse_args()

    out = Path(__file__).resolve().parents[1] / "BENCH_bmm.json"
    record = run_bench(quick=args.quick, out_path=out)
    print_report(record, sys.stdout)
    print(f"wrote {out}")
    raise SystemExit(0 if record["bit_identity"]["ok"] else 1)
