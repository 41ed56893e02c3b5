"""The serving layer: a concurrent, shape-batching parse service.

``repro.pipeline`` made single-caller batches fast (compile once, bind
cheap); ``repro.serve`` makes that shape safe and fast under *many
concurrent producers*:

* :class:`ParseService` — bounded admission queue, per-request
  deadlines, a pool of worker threads each owning a private
  :class:`~repro.pipeline.session.ParserSession`, graceful
  start/drain/shutdown;
* :class:`ShapeBatcher` — groups requests by sentence shape (the
  template cache key) and releases single-shape batches on a
  size-or-linger rule, so every batch binds one cached template;
* :class:`ServiceMetrics` — request counters by outcome, queue-depth
  gauge, batch-size and latency histograms, via ``snapshot()``;
* :class:`ServiceStream` — a word-at-a-time parse opened with
  ``submit_stream()`` (here or on a cluster client): the words stay on
  the caller's side, and ``feed(word)`` submits the grown prefix as an
  ordinary request, so its future resolves to the prefix's result.

See ``docs/architecture.md`` ("Serving layer") and
``benchmarks/bench_service.py`` for the throughput record.
"""

from repro.serve.batcher import ParseRequest, ShapeBatcher
from repro.serve.errors import (
    DeadlineExceeded,
    ServeError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.serve.metrics import Counter, Gauge, Histogram, ServiceMetrics
from repro.serve.service import ParseService, ServiceStream
from repro.serve.worker import Worker

__all__ = [
    "ParseService",
    "ServiceStream",
    "ParseRequest",
    "ShapeBatcher",
    "Worker",
    "ServiceMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "ServeError",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "ServiceUnavailable",
]
