"""Compare two checkouts on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 0]

PARENT_DIR and CHANGE_DIR are checkouts of the two commits (each with
its own ``BENCHMARK.json`` and ``benchmarks/e2e``).  For every workload
the script runs ``--pairs`` pairs at the window ``BENCHMARK.json`` sets,
alternating which side runs first.  A run that stamps itself invalid
(phase B of ``cluster-open`` sent late) is run again and never counted.
Then it prints one row per workload and end-to-end metric:

* each side's median and quartiles, and the share of pairs each side
  wins (ties count for neither);
* ``gain`` when the change wins at least 90% of the pairs and the
  medians differ by more than the parent's interquartile range;
* ``regression`` when the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` when either side's interquartile range exceeds the
  bound, unless every change run beats every parent run;
* ``within bound`` otherwise.

A gain does not count when the change failed more units than the
parent.  The raw values are written to ``--out`` (by default a new
temporary directory) as ``comparison.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from inputs import WORKLOADS

MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
RUN_TIMEOUT = 1200
#: Runs of one pair side before a side that keeps running invalid gives up.
ATTEMPTS = 3


def verdict(parent: "list[float]", change: "list[float]", *, better: str, bound: float) -> dict:
    """Apply the comparison rules to one workload x metric."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long samples of at least two pairs")
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pairs = len(parent)
    gap = sign * (cm - pm)
    scale = abs(pm) or 1.0
    if change_wins >= GAIN_WIN_SHARE * pairs and gap > (p3 - p1):
        outcome = "gain"
    elif -gap > bound * scale:
        outcome = "regression"
    elif max(p3 - p1, c3 - c1) > bound * scale and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "parent_wins": parent_wins / pairs,
        "change_wins": change_wins / pairs,
        "delta": (cm - pm) / scale,
        "verdict": outcome,
    }


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    """One valid untraced run's result line; invalid runs are run again."""
    for attempt in range(ATTEMPTS):
        attempt_out = out / f"attempt-{attempt}"
        command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                   "--seed", str(seed), "--trace", "0", "--out", str(attempt_out)]
        proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"compare: {workload} failed in {checkout} (exit {proc.returncode})")
        if json.loads((attempt_out / "result.json").read_text())["stamp"]["valid"]:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"compare: {workload} run in {checkout} is invalid; running it again", file=sys.stderr)
    raise SystemExit(f"compare: {workload} in {checkout} was invalid {ATTEMPTS} times")


def collect(args) -> dict:
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    raw: dict = {}
    for workload in args.workloads:
        raw[workload] = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = args.out / side / f"{workload}-{pair}"
                print(f"compare: {workload} pair {pair} {side}", file=sys.stderr)
                raw[workload][side].append(
                    run_once(sides[side], workload, args.seed, out)
                )
    return raw


def report(raw: dict, spec: dict) -> "list[str]":
    header = (f"{'workload':<13} {'metric':<17} {'parent q1/med/q3':>26} "
              f"{'change q1/med/q3':>26} {'wins p/c':>9} {'delta':>7}  verdict")
    lines = [header]
    for workload, sides in raw.items():
        failed = {side: sum(r["failed"] for r in runs) for side, runs in sides.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
            row = verdict(values["parent"], values["change"],
                          better=metric["better"], bound=metric["bound"])
            if row["verdict"] == "gain" and failed["change"] > failed["parent"]:
                row["verdict"] = "no gain (more failures)"
            quart = {side: "/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")}
            lines.append(
                f"{workload:<13} {name:<17} {quart['parent']:>26} {quart['change']:>26} "
                f"{row['parent_wins']:>4.0%}/{row['change_wins']:<4.0%} "
                f"{row['delta']:>+7.1%}  {row['verdict']}"
            )
        lines.append(f"{workload:<13} {'failed units':<17} {failed['parent']:>26} {failed['change']:>26}")
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="compare two checkouts on the e2e benchmark")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, help="result directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"at least {MIN_PAIRS} pairs are needed for a verdict")
    args.out = (args.out or Path(tempfile.mkdtemp(prefix="e2e-compare-"))).resolve()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    raw = collect(args)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "comparison.json").write_text(json.dumps(raw, indent=1) + "\n")
    print("\n".join(report(raw, spec)))
    print(f"results: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
