"""The four workloads: set-up, warm-up, timed windows, layer counters.

``warm-mix``, ``long-tail`` and ``stream-words`` drive a
:class:`~repro.pipeline.ParserSession` in this process; ``cluster-open``
drives a one-shard :class:`~repro.cluster.ClusterLauncher` through one
:class:`~repro.cluster.ClusterClient`.  Everything uses the library's
defaults (engine, kernel-backend resolution, template-cache size); the
resolved names are recorded with the result.

An untraced run reports the end-to-end metrics.  Its timed window has
a pause in the middle (for ``cluster-open``, between phases A and B) in
which ``run.py`` times fresh set-ups, so that set-up samples span the
run.  A traced run measures the workload twice: untraced for three
quarters of the time, then traced for one quarter.  The per-layer
metrics come from the traced window; the throughput ratio of the two
windows is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from loads import (
    Reservoir, closed_loop, closed_loop_async, latency_ms, open_loop, percentile,
    poisson_schedule, throughput,
)
from oracle import SAMPLE_SIZE
from tracing import Tracer, TracedBackend, layer_metrics, traced

from repro import ClusterLauncher, ParserSession
from repro.cluster.logs import ClusterLogParser
from repro.engines.registry import create_engine
from repro.grammar.builtin.english import english_grammar
from repro.kernels.backend import create_backend

#: Built-in grammar every workload parses under (shards resolve it by name).
GRAMMAR = "english"

#: cluster-open: requests in flight during phase A (closed loop).
CLUSTER_IN_FLIGHT = 2
#: cluster-open: phase A gets this share of the window, phase B the rest.
CLUSTER_PHASE_A_SHARE = 1 / 3
#: The traced window's share of a traced run (untraced gets the rest).
TRACED_SHARE = 1 / 4

#: Frozen calibration: phase B's arrival rate and the seed baseline.
CALIBRATION = Path(__file__).with_name("calibration.json")

#: Per-layer metrics that only ``cluster-open`` produces; zero elsewhere.
CLUSTER_LAYER = (
    "serve.queue_wait_mean_ms", "serve.queue_wait_p99_ms", "serve.batch_size_mean",
    "serve.rejected", "serve.expired",
    "cluster.shard_residence_p50_ms", "cluster.shard_residence_p99_ms",
    "cluster.client_template_builds", "cluster.outside_shard_p50_ms",
    "loadgen.late_p99_ms",
)


def arrival_rate() -> float:
    return float(json.loads(CALIBRATION.read_text())["cluster_open_rate_per_s"])


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: "dict[str, float]" = field(default_factory=dict)
    samples: "list[tuple]" = field(default_factory=list)
    engine: str = ""
    backend: str = ""
    notes: "dict[str, object]" = field(default_factory=dict)

    def count(self, windows) -> None:
        self.attempted = sum(w.attempted for w in windows)
        self.failed = sum(w.failed for w in windows)
        self.notes["latency_samples"] = [len(w.latencies) for w in windows]
        self.notes["window_s"] = [w.end - w.start for w in windows]


class EngineCounters:
    """Sums of the exact ``EngineStats`` counters over observed results."""

    FIELDS = ("consistency_passes", "role_values_killed", "matrix_entries_zeroed")

    def __init__(self):
        self.units = 0
        self.sums = dict.fromkeys(self.FIELDS, 0)

    def add(self, stats) -> None:
        self.units += 1
        for name in self.FIELDS:
            self.sums[name] += getattr(stats, name)

    def means(self) -> "dict[str, float]":
        per = max(self.units, 1)
        return {f"engines.{name}": total / per for name, total in self.sums.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Summed peak RSS (VmHWM) of this process's running children.

    Read from ``/proc`` rather than ``RUSAGE_CHILDREN``, which would also
    count the set-up probes this process has spawned and waited for.
    """
    total_kb = 0
    for listing in Path("/proc/self/task").glob("*/children"):
        for pid in listing.read_text().split():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    if not total_kb:
        raise RuntimeError("no running child process found in /proc")
    return total_kb / 1024.0


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


# -- set-up --------------------------------------------------------------------


def new_session(backend=None) -> ParserSession:
    """An in-process workload's set-up: a session on the library's defaults."""
    return ParserSession(english_grammar(), backend=backend)


@contextlib.contextmanager
def cluster(run_dir: Path):
    """``cluster-open``'s set-up: one shard and one connected client."""
    launcher = ClusterLauncher(
        GRAMMAR, shards=1, workers=1, workers_mode="thread", run_dir=run_dir
    ).start()
    try:
        with launcher.client(english_grammar()) as client:
            yield launcher, client
    finally:
        launcher.shutdown()


@contextlib.contextmanager
def set_up(workload: str, run_dir: Path):
    """The set-up a fresh *workload* process performs before it serves."""
    if workload == "cluster-open":
        with cluster(run_dir):
            yield
    else:
        new_session()
        yield


def _timed(loop, seconds: float, between) -> list:
    """``[loop(seconds)]``, or two halves with *between* run in the pause."""
    if between is None:
        return [loop(seconds)]
    first = loop(seconds / 2)
    between()
    return [first, loop(seconds / 2)]


# -- in-process workloads ------------------------------------------------------


def _units(workload: str, session: ParserSession, sentences: "list[str]", tracer):
    """``(key, call)`` per unit; the key is what the oracle re-parses."""
    if workload == "stream-words":
        def gen():
            for sentence in itertools.cycle(sentences):
                stream = session.stream()
                words = sentence.split()
                for k, word in enumerate(words):
                    yield " ".join(words[: k + 1]), functools.partial(stream.extend, word)
    else:
        def gen():
            for sentence in itertools.cycle(sentences):
                yield sentence, functools.partial(session.parse, sentence)
    for unit, pair in enumerate(gen()):
        if tracer is not None:
            tracer.unit = unit
        yield pair


def _in_process_windows(workload, inputs, seconds, sampler, *, between=None, tracer=None):
    """Fresh session, untimed warm-up, timed closed-loop windows."""
    backend = None if tracer is None else TracedBackend(create_backend(None), tracer)
    session = new_session(backend)
    for sentence in inputs.warmup:
        if workload == "stream-words":
            session.stream(sentence.split())
        else:
            session.parse(sentence)
    counters = EngineCounters()

    def observe(key, result):
        sampler.offer(key, result)
        counters.add(result.stats)

    units = _units(workload, session, inputs.timed, tracer)
    before = session.cache_info()

    def loop(window_seconds):
        return closed_loop(units, window_seconds, observe)

    if tracer is None:
        windows = _timed(loop, seconds, between)
    else:
        tracer.reset()
        with traced(tracer, type(session.engine)):
            windows = [loop(seconds)]
    hit_ratio = _hit_ratio(before, session.cache_info())
    return session, windows, counters, hit_ratio


def run_in_process(workload, inputs, seconds, *, trace, seed, out_dir, between=None) -> Outcome:
    sampler = Reservoir(SAMPLE_SIZE, f"{workload}/oracle/{seed}")
    outcome = Outcome()
    plain_seconds = seconds * (1 - TRACED_SHARE) if trace else seconds
    session, plain, _, _ = _in_process_windows(
        workload, inputs, plain_seconds, sampler, between=between
    )
    outcome.metrics = {
        "throughput_per_s": throughput(plain),
        "latency_p50_ms": latency_ms(plain, 50),
        "latency_p99_ms": latency_ms(plain, 99),
        "peak_rss_mb": peak_rss_mb(),
    }
    windows = list(plain)
    if trace:
        tracer = Tracer()
        session, traced_windows, counters, hit_ratio = _in_process_windows(
            workload, inputs, seconds * TRACED_SHARE, sampler, tracer=tracer
        )
        units = sum(len(w.latencies) for w in traced_windows)
        outcome.metrics.update({
            **layer_metrics(tracer.spans, units),
            **counters.means(),
            "pipeline.template_hit_ratio": hit_ratio,
            "pipeline.template_cache_mb": session.cached_bytes() / 1e6,
            **dict.fromkeys(CLUSTER_LAYER, 0.0),
            "trace.overhead_frac": 1.0 - throughput(traced_windows) / throughput(plain),
        })
        tracer.write_jsonl(out_dir / f"spans-{workload}.jsonl")
        windows += traced_windows
    outcome.count(windows)
    outcome.samples = sampler.items
    outcome.engine = session.engine.name
    outcome.backend = session.kernel_backend.name
    return outcome


# -- cluster-open ----------------------------------------------------------------


def _service_snapshot(client) -> dict:
    (snapshot,) = client.snapshot().values()  # one shard
    return snapshot


def _serve_metrics(before: dict, after: dict) -> "dict[str, float]":
    """Shard service counters over the window between two snapshots."""

    def hist_mean(name: str) -> float:
        a, b = after["histograms"][name], before["histograms"][name]
        count = a["count"] - b["count"]
        return (a["sum"] - b["sum"]) / count if count else 0.0

    return {
        "serve.queue_wait_mean_ms": hist_mean("queue_wait_seconds") * 1000.0,
        # Bucket bound of the cumulative histogram: coarse by construction.
        "serve.queue_wait_p99_ms": (after["histograms"]["queue_wait_seconds"]["p99"] or 0.0) * 1000.0,
        "serve.batch_size_mean": hist_mean("batch_size"),
        "serve.rejected": after["counters"]["rejected"] - before["counters"]["rejected"],
        "serve.expired": after["counters"]["expired"] - before["counters"]["expired"],
        "pipeline.template_hit_ratio": _hit_ratio(
            before["service"]["template_cache"], after["service"]["template_cache"]
        ),
        "pipeline.template_cache_mb": after["gauges"]["template_cache_bytes"] / 1e6,
    }


def _cluster_phases(client, items, seconds, rate, observe, between=None):
    """Phase A (closed loop, capacity) then phase B (open loop, latency)."""
    phase_a = closed_loop_async(
        client.submit, items, seconds * CLUSTER_PHASE_A_SHARE,
        in_flight=CLUSTER_IN_FLIGHT, observe=observe,
    )
    if between is not None:
        between()
    seconds_b = seconds * (1 - CLUSTER_PHASE_A_SHARE)
    # Like the shape sequence, the arrival schedule is fixed; the seed picks words.
    schedule = poisson_schedule(rate, seconds_b, random.Random("cluster-open/arrivals"))
    wall_start = time.time()
    phase_b = open_loop(client.submit, items, schedule, seconds_b, observe=observe)
    return phase_a, phase_b, (wall_start, time.time())


def _residence_ms(run_dir: Path, wall: "tuple[float, float]") -> "list[float]":
    """Shard recv->done times of the requests received inside *wall*."""
    timeline = ClusterLogParser.from_directory(run_dir, pool=False).timeline
    low, high = wall
    return sorted(
        (timeline.done[key] - stamp) * 1000.0
        for key, stamp in timeline.recv.items()
        if low <= stamp <= high and key in timeline.done
    )


def run_cluster(inputs, seconds, *, trace, seed, out_dir, between=None) -> Outcome:
    sampler = Reservoir(SAMPLE_SIZE, f"cluster-open/oracle/{seed}")
    rate = arrival_rate()
    run_dir = out_dir / f"cluster-{os.getpid()}"
    items = itertools.cycle(inputs.timed)
    counters = EngineCounters()
    tracer = Tracer()

    def observe_traced(key, result):
        sampler.offer(key, result)
        counters.add(result.stats)

    plain_seconds = seconds * (1 - TRACED_SHARE) if trace else seconds
    with cluster(run_dir) as (launcher, client):
        # One at a time: a burst would leave its queue waits in the
        # shard's cumulative histograms.
        for sentence in inputs.warmup:
            client.submit(sentence).result()
        plain_a, plain_b, _ = _cluster_phases(
            client, items, plain_seconds, rate, sampler.offer, between
        )
        windows = [plain_a, plain_b]
        if trace:
            before = _service_snapshot(client)
            builds_before = client.cache_info()["misses"]
            with traced(tracer, type(create_engine(launcher.engine))):
                phase_a, phase_b, wall = _cluster_phases(
                    client, items, seconds * TRACED_SHARE, rate, observe_traced
                )
            builds = client.cache_info()["misses"] - builds_before
            after = _service_snapshot(client)
            windows += [phase_a, phase_b]
        # Client plus shard, read while the shard still runs.
        rss_mb = peak_rss_mb() + children_peak_mb()
    outcome = Outcome(samples=sampler.items)
    outcome.count(windows)
    outcome.engine = ",".join(sorted({r.stats.engine for _, r in sampler.items}))
    outcome.backend = ",".join(
        sorted({str(r.stats.extra.get("kernel_backend")) for _, r in sampler.items})
    )
    outcome.notes["arrival_rate_per_s"] = rate
    late_p99_ms = percentile(sorted(plain_b.late), 99) * 1000.0
    outcome.notes["late_p99_ms"] = late_p99_ms
    outcome.metrics = {
        "throughput_per_s": throughput([plain_a]),
        "latency_p50_ms": latency_ms([plain_b], 50),
        "latency_p99_ms": latency_ms([plain_b], 99),
        "peak_rss_mb": rss_mb,
    }
    if not trace:
        return outcome
    residence = _residence_ms(run_dir, wall)
    units = len(phase_a.latencies) + len(phase_b.latencies)
    residence_p50 = percentile(residence, 50) if residence else 0.0
    outcome.metrics.update({
        **layer_metrics(tracer.spans, units),
        **counters.means(),
        **_serve_metrics(before, after),
        "cluster.shard_residence_p50_ms": residence_p50,
        "cluster.shard_residence_p99_ms": percentile(residence, 99) if residence else 0.0,
        "cluster.client_template_builds": builds / max(units, 1),
        "cluster.outside_shard_p50_ms": latency_ms([phase_b], 50) - residence_p50,
        "loadgen.late_p99_ms": late_p99_ms,
        "trace.overhead_frac": 1.0 - throughput([phase_a]) / throughput([plain_a]),
    })
    tracer.write_jsonl(out_dir / "spans-cluster-open.jsonl")
    return outcome


def run(workload, inputs, seconds, *, trace, seed, out_dir, between=None) -> Outcome:
    """Run *workload*; *between* runs in the pause of an untraced window."""
    kwargs = dict(trace=trace, seed=seed, out_dir=out_dir, between=between)
    if workload == "cluster-open":
        return run_cluster(inputs, seconds, **kwargs)
    return run_in_process(workload, inputs, seconds, **kwargs)
