"""End-to-end benchmark of the whole stack: four workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0            # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace    # plus the per-layer pass
    python3 benchmarks/e2e/run.py --seed 0 --quick    # durations / 10
    python3 benchmarks/e2e/run.py --workload warm-mix --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs in a fresh subprocess and a
table of the end-to-end metrics is printed.  With ``--workload`` one
workload runs in this process; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  A sample of the timed
results is checked against the serial engine first; a mismatch exits 1
and prints no metrics.

Result files (run stamp, metrics, spans of traced runs) go to ``--out``,
by default a fresh directory under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = ROOT / "BENCHMARK.json"

#: Fresh-process set-ups timed per group.  An untraced run times three
#: groups, before its window, in the window's pause and after it, so a
#: slow phase of the host reaches at most one group; setup_s is the
#: median of all of them.
SETUP_PER_GROUP = 3
#: Subprocess budgets (seconds) beyond the measured window.
PROBE_TIMEOUT = 120
CHILD_OVERHEAD = 150
#: Phase B of cluster-open is invalid when sends ran later than this.
#: Sends share two CPUs with the client and the shard; 1-4 ms at p99 is
#: the norm on a 2-CPU host.
LATE_LIMIT_MS = 5.0
#: Shown with the end-to-end metrics but not gated by BENCHMARK.json:
#: fail_frac is 0 on every workload, and the p99 spread of cluster-open
#: is wider than any bound allowed (see README.md).
UNGATED = (("latency_p99_ms", "ms"), ("fail_frac", "ratio"))

#: Read once, before repro is imported, for the run stamp.
START_ENV = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}


def _fail(message: str, code: int = 2):
    print(f"e2e: {message}", file=sys.stderr)
    sys.exit(code)


def _prepare_environment() -> None:
    """Refuse unsupported states; make src/ importable here and in children."""
    if os.environ.get("REPRO_SANITIZE") == "1":
        _fail("refusing to run under REPRO_SANITIZE=1: the sanitizer patches the classes measured")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    # The library as users get it: default kernel-backend resolution.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )


def git_commit(root: Path) -> "str | None":
    """HEAD's commit, read from .git without running git (None outside a repo)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def default_out(tag: str) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    return ROOT / ".bench_out" / f"{stamp}-{tag}-{os.getpid()}"


def measure_setup(workload: str, out_dir: Path) -> float:
    """Seconds from spawning a fresh process to it being ready to serve."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
               "--out", str(out_dir)]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(PROBE_TIMEOUT)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def _probe(workload: str, out_dir: Path) -> int:
    """Perform *workload*'s own set-up, say so, then tear it down."""
    import workloads

    with workloads.set_up(workload, out_dir / f"probe-{os.getpid()}"):
        print("ready", flush=True)
    return 0


def run_one(args, spec: dict) -> int:
    import inputs
    import oracle
    import workloads
    from repro.analysis.host import host_metadata
    from repro.grammar.builtin.english import english_grammar

    trace = bool(args.trace)
    out_dir = args.out or default_out(f"{args.workload}-s{args.seed}-t{int(trace)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    generated = inputs.make_inputs(args.workload, args.seed, args.seconds)
    setup_times: "list[float]" = []

    def time_setups() -> None:
        setup_times.extend(measure_setup(args.workload, out_dir) for _ in range(SETUP_PER_GROUP))

    if not trace:
        time_setups()
    outcome = workloads.run(
        args.workload, generated, args.seconds, trace=trace, seed=args.seed, out_dir=out_dir,
        between=None if trace else time_setups,
    )
    if not trace:
        time_setups()

    failures = oracle.check(english_grammar(), outcome.samples)
    if len(outcome.samples) < oracle.SAMPLE_SIZE:
        failures.append(f"only {len(outcome.samples)} results sampled, need {oracle.SAMPLE_SIZE}")
    if failures:
        for line in failures:
            print(f"e2e: oracle mismatch: {line}", file=sys.stderr)
        return 1

    metrics = dict(outcome.metrics, fail_frac=outcome.failed / max(outcome.attempted, 1))
    if not trace:
        metrics["setup_s"] = statistics.median(setup_times)
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        _fail(f"workload produced no value for {missing}", 1)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    late_ms = outcome.notes.get("late_p99_ms")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "host": host_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "engine": outcome.engine,
        "kernel_backend": outcome.backend,
        "repro_env": START_ENV,
        "valid": late_ms is None or late_ms <= LATE_LIMIT_MS,
    }
    record = {
        "stamp": stamp,
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "setup_runs_s": setup_times,
        "notes": outcome.notes,
        "metrics": report,
        "measured": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if not stamp["valid"]:
        print(f"e2e: warning: phase B sends ran {late_ms:.2f} ms late at p99 "
              f"(limit {LATE_LIMIT_MS} ms); this run is marked invalid", file=sys.stderr)
    shown = [(m["name"], m["unit"]) for m in declared] + ([] if trace else list(UNGATED))
    for name, unit in shown:
        print(f"{args.workload:<13} {name:<36} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": report,
    }))
    return 0


def _table(title: str, names: "list[tuple[str, str]]", results: dict) -> str:
    workloads_ = list(results)
    lines = [title, f"{'metric':<36} {'unit':<7}" + "".join(f"{w:>15}" for w in workloads_)]
    for name, unit in names:
        row = f"{name:<36} {unit:<7}"
        for w in workloads_:
            row += f"{results[w][name]:>15.6g}"
        lines.append(row)
    return "\n".join(lines)


def run_all(args, spec: dict) -> int:
    out_dir = args.out or default_out(f"all-s{args.seed}")
    passes = [0, 1] if args.trace else [0]
    tables = []
    invalid = []
    status = 0
    for trace in passes:
        results = {}
        for workload in WORKLOADS:
            child_out = out_dir / f"{workload}-trace{trace}"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(trace), "--out", str(child_out),
            ]
            print(f"e2e: {workload} (trace {trace}, {args.seconds:g} s) ...", file=sys.stderr)
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=args.seconds + CHILD_OVERHEAD
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"e2e: {workload} failed (exit {proc.returncode})", file=sys.stderr)
                status = 1
                continue
            record = json.loads((child_out / "result.json").read_text())
            results[workload] = record["measured"]
            if not record["stamp"]["valid"]:
                invalid.append(f"{workload} (trace {trace})")
        if not results:
            continue
        if trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            tables.append(_table("per-layer metrics (traced pass)", names, results))
        else:
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(UNGATED)
            tables.append(_table("end-to-end metrics", names, results))
    print("\n\n".join(tables))
    if invalid:
        print(f"INVALID, phase B sent more than {LATE_LIMIT_MS} ms late at p99: "
              + ", ".join(invalid))
    print(f"results: {out_dir}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed window per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced window")
    parser.add_argument("--quick", action="store_true", help="divide every duration by 10")
    parser.add_argument("--out", type=Path, help="result directory (default: under .bench_out/)")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds /= 10.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _prepare_environment()
    if args.setup_probe:
        return _probe(args.setup_probe, args.out or default_out("probe"))
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
