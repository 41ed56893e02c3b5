"""Built-in service metrics: counters, gauges, and bucketed histograms.

Deliberately dependency-free (no prometheus client in the container):
three tiny thread-safe primitives plus :class:`ServiceMetrics`, the
fixed instrument set :class:`~repro.serve.service.ParseService` updates
on every request.  ``snapshot()`` returns plain nested dicts (JSON- and
test-friendly); ``render()`` formats the snapshot as the tables the
``repro serve-bench`` CLI prints.

The counters obey a conservation law the tests enforce: every submitted
request is either rejected at admission or accepted, and every accepted
request ends in exactly one of completed / failed / expired / cancelled
once the service is drained::

    submitted == accepted + rejected
    accepted  == completed + failed + expired + cancelled   (when idle)
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 0.1 ms .. 10 s, roughly log-spaced.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default batch-size buckets (requests per dispatched batch).
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A settable instantaneous value (e.g. current queue depth)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and quantile estimates.

    ``buckets`` are upper bounds; observations above the last bound land
    in a +inf overflow bucket.  Quantiles are estimated as the upper
    bound of the bucket containing the requested rank — coarse, but
    monotone and cheap, which is all a serving dashboard needs.
    """

    __slots__ = ("_lock", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float | None:
        """Upper bound of the bucket holding the q-th rank (None if empty)."""
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.buckets):
                    # Clamp to the observed max: the bucket bound can
                    # overshoot it, and max is exact.
                    return min(self.buckets[index], self.max)
                return self.max  # overflow bucket: best bound we have
        return self.max

    def summary(self) -> dict:
        with self._lock:
            mean = self.total / self.count if self.count else None
            return {
                "count": self.count,
                "sum": self.total,
                "mean": mean,
                "min": self.min,
                "max": self.max,
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
            }


class ServiceMetrics:
    """The fixed instrument set of a :class:`ParseService`.

    Counters (requests, by outcome):
        ``submitted``  every ``submit()`` call over a tokenizable sentence
        ``accepted``   passed admission control into the queue
        ``rejected``   refused at admission (overload or not running)
        ``completed``  dispatched and parsed successfully
        ``failed``     dispatched but the engine raised
        ``expired``    deadline passed while queued; never dispatched
        ``cancelled``  future cancelled (or abandoned by abrupt shutdown)
        A stream token is an ordinary request for its grown prefix and
        is counted only here.
    Gauges:
        ``queue_depth``           requests currently queued (not yet dispatched)
        ``network_bytes``         resident bytes of the most recently parsed
                                  network's mutable state (packed core)
        ``template_cache_bytes``  bytes pinned by the workers' template
                                  caches, refreshed on ``snapshot()``
        ``queued_bytes``          estimated bytes of queued work (per-shape
                                  network-size estimates; admission input)
        ``shared_store_bytes``    payload bytes exported to the shared-memory
                                  template store (process workers mode; 0
                                  under thread workers)
    Histograms:
        ``batch_size``          requests per dispatched batch
        ``queue_wait_seconds``  admission -> dispatch, per request
        ``latency_seconds``     admission -> result, per completed request
    """

    def __init__(self) -> None:
        self.submitted = Counter()
        self.accepted = Counter()
        self.rejected = Counter()
        self.completed = Counter()
        self.failed = Counter()
        self.expired = Counter()
        self.cancelled = Counter()
        self.queue_depth = Gauge()
        self.network_bytes = Gauge()
        self.template_cache_bytes = Gauge()
        self.queued_bytes = Gauge()
        self.shared_store_bytes = Gauge()
        self.batch_size = Histogram(BATCH_BUCKETS)
        self.queue_wait_seconds = Histogram(LATENCY_BUCKETS)
        self.latency_seconds = Histogram(LATENCY_BUCKETS)

    _COUNTERS = (
        "submitted", "accepted", "rejected",
        "completed", "failed", "expired", "cancelled",
    )
    _GAUGES = (
        "queue_depth", "network_bytes", "template_cache_bytes",
        "queued_bytes", "shared_store_bytes",
    )
    _HISTOGRAMS = ("batch_size", "queue_wait_seconds", "latency_seconds")

    def snapshot(self) -> dict:
        """A point-in-time copy of every instrument, as plain dicts."""
        return {
            "counters": {name: getattr(self, name).value for name in self._COUNTERS},
            "gauges": {name: getattr(self, name).value for name in self._GAUGES},
            "histograms": {name: getattr(self, name).summary() for name in self._HISTOGRAMS},
        }

    def render(self, snapshot: dict | None = None) -> str:
        """Format *snapshot* (default: a fresh one) as terminal tables."""
        from repro.analysis import format_table

        snap = snapshot or self.snapshot()
        counter_rows = [[name, count] for name, count in snap["counters"].items()]
        counter_rows.append(["queue depth (now)", snap["gauges"]["queue_depth"]])
        parts = [format_table(["requests", "count"], counter_rows, title="Service metrics")]

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value * 1000:.2f}"

        latency_rows = []
        for name in ("queue_wait_seconds", "latency_seconds"):
            s = snap["histograms"][name]
            latency_rows.append(
                [name, s["count"], fmt(s["mean"]), fmt(s["p50"]), fmt(s["p90"]),
                 fmt(s["p99"]), fmt(s["max"])]
            )
        parts.append(
            format_table(
                ["latency (ms)", "count", "mean", "p50", "p90", "p99", "max"],
                latency_rows,
            )
        )
        batch = snap["histograms"]["batch_size"]
        if batch["count"]:
            parts.append(
                f"batches: {batch['count']}  mean size {batch['mean']:.1f}  "
                f"p50 {batch['p50']:g}  max {batch['max']:g}"
            )
        gauges = snap["gauges"]
        if gauges.get("network_bytes") or gauges.get("template_cache_bytes"):
            parts.append(
                f"memory: {gauges.get('network_bytes', 0)} bytes/network  "
                f"template cache {gauges.get('template_cache_bytes', 0)} bytes  "
                f"queued est {gauges.get('queued_bytes', 0)} bytes"
            )
        return "\n".join(parts)
