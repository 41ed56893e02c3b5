"""Kernels — both kernel backends end to end: identity gate, then timing.

Thin harness over :mod:`repro.kernels.bench` (the logic lives in the
package so ``repro bench-kernels`` shares it): the same sentence
through a CDG ``ParserSession`` on every available kernel backend —
``packed``, plus ``native`` when a C toolchain is present — with each
settled network identical to the serial engine's before any clock
starts.

Run standalone to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]

which writes ``BENCH_kernels.json`` at the repo root.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.kernels.bench import print_report, run_bench


def test_kernels_bench(report):
    """Kernels: identity-gated CDG parse on every kernel backend."""
    record = run_bench(quick=True)
    assert record["bit_identity"]["ok"], record["bit_identity"]
    backends = record["backends"]
    cdg = record["end_to_end"]["cdg"]
    assert cdg["identical"]
    report(
        f"Kernel backends end to end (quick, {record['host']['cpu_count']} CPU host)",
        ["parser", *[f"{b} ms" for b in backends]],
        [[f"CDG n={cdg['sentence_words']}", *[cdg["latency_ms"][b] for b in backends]]],
        notes=record["notes"],
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter sentence and loops (CI smoke + artifact)")
    args = parser.parse_args()

    out = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
    record = run_bench(quick=args.quick, out_path=out)
    print_report(record, sys.stdout)
    print(f"wrote {out}")
    raise SystemExit(0 if record["bit_identity"]["ok"] else 1)
