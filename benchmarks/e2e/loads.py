"""The benchmark's own load generators and sample statistics.

Deliberately independent of ``repro.cluster.loadgen``: the instrument
must not change when the program under test changes.

* :func:`closed_loop` — one caller, next unit only after the previous
  one returned (in-process workloads).
* :func:`closed_loop_async` — a fixed number of requests in flight from
  one thread, refilled from completion callbacks (cluster phase A).
* :func:`open_loop` — Poisson arrivals on a precomputed schedule; each
  latency is timed from the request's *scheduled* send time, so a stall
  is charged to every request it delays (cluster phase B).
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Bound on waiting for a cluster reply; a shard that never answers
#: fails the run instead of hanging it.
REPLY_TIMEOUT = 60.0


def percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of an ascending sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def window_rates(times: "list[float]", start: float, end: float, width: float = 1.0) -> "list[float]":
    """Completions per second in each full *width*-second window of [start, end).

    A trailing partial window is dropped; a run shorter than one window
    yields one rate over the whole run.
    """
    n_windows = int((end - start) // width)
    if n_windows < 1:
        inside = sum(1 for t in times if start <= t < end)
        return [inside / (end - start)] if end > start else [0.0]
    counts = [0] * n_windows
    for t in times:
        index = int((t - start) // width)
        if 0 <= index < n_windows:
            counts[index] += 1
    return [count / width for count in counts]


class Reservoir:
    """A seeded uniform sample of *k* (key, result) pairs from a stream."""

    def __init__(self, k: int, seed: "int | str"):
        self.k = k
        self.items: "list[tuple]" = []
        self.seen = 0
        self._rng = random.Random(seed)

    def offer(self, key, result) -> None:
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append((key, result))
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.k:
            self.items[slot] = (key, result)


@dataclass
class Window:
    """What one timed window measured (times from ``time.perf_counter``)."""

    start: float
    end: float = 0.0
    latencies: "list[float]" = field(default_factory=list)
    completions: "list[float]" = field(default_factory=list)
    late: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def throughput(windows: "list[Window]") -> float:
    """Median of the 1-second completion rates of back-to-back *windows*.

    Rates are taken inside each window, so a pause between two windows
    of one measurement counts for neither.
    """
    return statistics.median(
        rate for w in windows for rate in window_rates(w.completions, w.start, w.end)
    )


def latency_ms(windows: "list[Window]", q: float) -> float:
    """Percentile *q* of the latencies pooled over *windows*, in ms."""
    return percentile(sorted(t for w in windows for t in w.latencies), q) * 1000.0


def closed_loop(
    units: "Iterator[tuple[object, Callable[[], object]]]",
    seconds: float,
    observe: "Callable[[object, object], None] | None" = None,
) -> Window:
    """Run *units* back to back for *seconds*; each is ``(key, call)``.

    Only ``call()`` is timed; fetching the next unit and *observe*
    (oracle sampling, counters) run outside the timed region.  No unit
    is taken after the deadline, so a second window on the same *units*
    continues exactly where this one stopped (a stream keeps its words).
    """
    clock = time.perf_counter
    window = Window(start=clock())
    deadline = window.start + seconds
    while clock() < deadline:
        try:
            key, call = next(units)
        except StopIteration:
            break
        began = clock()
        window.attempted += 1
        try:
            result = call()
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            window.failed += 1
            continue
        finished = clock()
        window.latencies.append(finished - began)
        window.completions.append(finished)
        if observe is not None:
            observe(key, result)
    window.end = clock()
    return window


def _recorder(window: Window, observe, lock: threading.Lock):
    """A completion callback factory shared by the two cluster loops."""

    def record(future, key, timed_from: float, release=None) -> None:
        finished = time.perf_counter()
        error = future.exception()
        with lock:
            if error is not None:
                window.failed += 1
            else:
                window.latencies.append(finished - timed_from)
                window.completions.append(finished)
                if observe is not None:
                    observe(key, future.result())
        if release is not None:
            release()

    return record


def closed_loop_async(
    submit: "Callable[[str], object]",
    items: "Iterator[str]",
    seconds: float,
    *,
    in_flight: int,
    observe: "Callable[[object, object], None] | None" = None,
) -> Window:
    """Keep *in_flight* requests outstanding for *seconds* from this thread.

    *submit* returns a ``concurrent.futures.Future``; completion
    callbacks record the latency and free a slot.  Returns after every
    request sent has completed.
    """
    clock = time.perf_counter
    lock = threading.Lock()
    slots = threading.Semaphore(in_flight)
    window = Window(start=clock())
    record = _recorder(window, observe, lock)
    deadline = window.start + seconds
    outstanding = []
    for item in items:
        if not slots.acquire(timeout=REPLY_TIMEOUT):
            raise TimeoutError(f"no reply within {REPLY_TIMEOUT} s")
        sent = clock()
        if sent >= deadline:
            slots.release()
            break
        window.attempted += 1
        try:
            future = submit(item)
        except Exception:  # noqa: BLE001 - refused at the door
            with lock:
                window.failed += 1
            slots.release()
            continue
        outstanding.append(future)
        future.add_done_callback(
            lambda f, key=item, t=sent: record(f, key, t, slots.release)
        )
    window.end = clock()
    for future in outstanding:
        future.exception(REPLY_TIMEOUT)  # wait; errors were counted by the callback
    return window


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> "list[float]":
    """Arrival offsets (seconds from start) of a Poisson process at *rate*."""
    offsets: "list[float]" = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def open_loop(
    submit: "Callable[[str], object]",
    items: "Iterator[str]",
    schedule: "list[float]",
    seconds: float,
    *,
    observe: "Callable[[object, object], None] | None" = None,
) -> Window:
    """Send one request per *schedule* offset, replies or not.

    Latency runs from the scheduled send time; ``late`` records how far
    behind schedule each send actually went out.
    """
    clock = time.perf_counter
    lock = threading.Lock()
    window = Window(start=clock())
    record = _recorder(window, observe, lock)
    outstanding = []
    for offset, item in zip(schedule, items):
        due = window.start + offset
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        window.late.append(max(0.0, clock() - due))
        window.attempted += 1
        try:
            future = submit(item)
        except Exception:  # noqa: BLE001 - refused at the door
            with lock:
                window.failed += 1
            continue
        outstanding.append(future)
        future.add_done_callback(lambda f, key=item, t=due: record(f, key, t))
    window.end = window.start + seconds
    for future in outstanding:
        future.exception(REPLY_TIMEOUT)
    return window
