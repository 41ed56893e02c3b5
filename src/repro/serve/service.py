"""The parse service: concurrent producers, shape-coherent dispatch.

:class:`ParseService` is the serving layer the ROADMAP's north star
asks for — the single-caller :class:`~repro.pipeline.session.ParserSession`
turned into a system that many threads can throw sentences at::

    from repro.serve import ParseService
    from repro.grammar.builtin import english_grammar

    with ParseService(english_grammar(), engine="vector", workers=2) as svc:
        future = svc.submit("the dog sees the cat", timeout=0.5)
        result = future.result()          # a ParseResult
        print(svc.metrics.render())

Architecture (one bounded queue, one mutex, three condition variables)::

    producers ── submit() ──▶ admission ──▶ ShapeBatcher ──▶ N workers
                  (reject/block when full)   (size-or-linger   (one private
                                              single-shape      ParserSession
                                              batches)          each)

* **Admission control** — the queue is bounded by ``max_queue``; when
  full, ``admission="reject"`` raises :class:`ServiceOverloaded`,
  ``admission="block"`` makes ``submit`` wait for space.
* **Deadlines** — per-request (or service-default) timeouts; a request
  whose deadline passes while queued is completed with
  :class:`DeadlineExceeded` and never dispatched.  Cancelling the
  returned future before dispatch likewise prevents dispatch.
* **Shape-batched scheduling** — requests are grouped by the sentence's
  category signature (the exact :class:`NetworkTemplate` cache key), so
  every dispatched batch binds against one cached template.  Under a
  shape-interleaved load with more live shapes than the bounded
  template LRU, this is the difference between thrashing (every parse
  rebuilds a template) and near-perfect cache locality — see
  ``benchmarks/bench_service.py``.
* **Lifecycle** — ``start()`` spawns the workers, ``drain()`` stops
  admission and waits for queued + in-flight work, ``shutdown()``
  drains (when ``wait=True``) and joins the workers.  The context
  manager form does start/shutdown automatically.
* **Metrics** — a :class:`ServiceMetrics` instance updated on every
  transition; ``snapshot()`` adds service state and the workers'
  aggregated template-cache counters.
* **Streams** — ``submit_stream()`` returns a :class:`ServiceStream`
  that keeps the words on the caller's side and submits each grown
  prefix as an ordinary request; the service holds no stream state.

Correctness invariant (enforced by the end-to-end tests): for the same
sentences, service results are bit-identical to
``ParserSession.parse_many`` on one session with the same grammar,
engine, and filter limit — scheduling changes *when* work runs, never
what it computes.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engines.base import ParseResult, ParserEngine
from repro.errors import StreamError
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.pipeline.session import DEFAULT_TEMPLATE_CACHE, ParserSession
from repro.serve.batcher import ParseRequest, ShapeBatcher
from repro.serve.errors import DeadlineExceeded, ServiceOverloaded, ServiceUnavailable
from repro.serve.metrics import ServiceMetrics
from repro.serve.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.router import ClusterClient

#: Project-wide lock acquisition order (checked by repro-lint RPR014):
#: the service mutex is always taken before any metrics-instrument lock —
#: instruments never call back into the service, so the reverse edge
#: cannot exist and the hierarchy stays acyclic.
LOCK_ORDER = ("ParseService._lock", "Counter._lock", "Gauge._lock", "Histogram._lock")

#: Sentinel distinguishing "not passed" from an explicit None.
_UNSET = object()

_service_ids = itertools.count(1)


class ServiceStream:
    """A word-at-a-time parse whose words stay on the caller's side.

    Opened with :meth:`ParseService.submit_stream` or
    :meth:`repro.cluster.ClusterClient.submit_stream`; *front* is that
    front end.  ``feed(word)`` tokenizes the grown prefix at the door,
    hands it to the front end's ordinary ``submit`` and appends the
    word only after that, so a word that raises (a non-string or empty
    word, a word the lexicon lacks, a refused submit) leaves the stream
    as it was.  Each token is then an ordinary request: admitted,
    deadlined, shape-batched and counted like any other, and its future
    resolves to the grown prefix's
    :class:`~repro.engines.base.ParseResult`, bit-identical to a fresh
    parse of the same words.  No worker or shard holds a stream's
    state, so a token that fails, expires or is cancelled breaks
    nothing: the next feed submits the whole prefix again.  A handle
    has one producer; feed it from one thread at a time.
    """

    __slots__ = ("_front", "_words", "_closed")

    def __init__(self, front: "ParseService | ClusterClient"):
        self._front = front
        self._words: list[str] = []
        self._closed = False

    def feed(
        self, word: str, *, timeout: "float | None | object" = _UNSET
    ) -> "Future[ParseResult]":
        """Submit the prefix grown by *word*; the future resolves to its result."""
        if self._closed:
            raise StreamError("cannot feed a closed stream; open a new one")
        if not isinstance(word, str) or not word:
            raise StreamError(f"stream words must be non-empty strings, got {word!r}")
        sentence = self._front.grammar.tokenize([*self._words, word])
        # Forward a timeout only when the caller gave one, so the front
        # end's own default_timeout applies otherwise.
        kwargs = {} if timeout is _UNSET else {"timeout": timeout}
        future = self._front.submit(sentence, **kwargs)
        self._words.append(word)
        return future

    def close(self) -> None:
        """Stop feeding (idempotent); no front end holds anything to release."""
        self._closed = True

    @property
    def words(self) -> tuple[str, ...]:
        """The words fed so far (rejected words are never appended)."""
        return tuple(self._words)

    def __enter__(self) -> "ServiceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ServiceStream({state}, words={len(self._words)})"


class ParseService:
    """A concurrent, shape-batching front end over a pool of sessions.

    Args:
        grammar: the grammar all requests are parsed under.
        engine: an engine *name* from the registry — each worker builds
            its own instance.  A :class:`ParserEngine` instance is only
            accepted with ``workers=1`` (engines, like sessions, are
            not shared across threads).
        workers: worker threads, each owning a private
            :class:`ParserSession`.
        max_queue: bound on queued (not yet dispatched) requests.
        max_memory_bytes: optional bound on the *estimated* bytes of
            queued work.  Estimates are per-shape network sizes the
            workers record after each parse (the packed core makes
            them small and exact), so admission can reason about
            memory, not just request count.  A shape never seen
            estimates as 0, and a request arriving at an empty queue
            is always admitted — the bound is backpressure, not a
            hard per-request limit.
        admission: ``"reject"`` (raise :class:`ServiceOverloaded` when
            full) or ``"block"`` (make ``submit`` wait for space).
        workers_mode: ``"thread"`` (default — each worker thread parses
            in-process through its session) or ``"process"`` — worker
            threads keep the same admission/batching/metrics/drain
            lifecycle but dispatch each batch to a pool of worker
            *processes* that attach templates from a shared-memory
            store (see :mod:`repro.parallel`), putting real cores
            behind the batch instead of GIL-interleaved threads.
            Process mode requires an engine *name* (instances cannot
            cross the process boundary).
        start_method: multiprocessing start method for process mode
            (``None`` = fork where available, else spawn).
        max_batch_size / max_linger: the dynamic batcher's flush rules
            (see :class:`ShapeBatcher`).
        default_timeout: deadline in seconds applied to requests that
            do not pass their own ``timeout``; ``None`` = no deadline.
        filter_limit / template_cache_size: forwarded to every worker's
            session.  Every worker, thread or process, runs the packed
            kernel core.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        engine: "str | ParserEngine" = "vector",
        *,
        workers: int = 2,
        max_queue: int = 256,
        max_memory_bytes: int | None = None,
        admission: str = "reject",
        max_batch_size: int = 16,
        max_linger: float = 0.002,
        default_timeout: float | None = None,
        filter_limit: int | None = None,
        template_cache_size: int = DEFAULT_TEMPLATE_CACHE,
        workers_mode: str = "thread",
        start_method: str | None = None,
        clock=time.monotonic,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_memory_bytes is not None and max_memory_bytes < 1:
            raise ValueError(f"max_memory_bytes must be >= 1, got {max_memory_bytes}")
        if admission not in ("reject", "block"):
            raise ValueError(f"admission must be 'reject' or 'block', got {admission!r}")
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', got {workers_mode!r}"
            )
        if isinstance(engine, ParserEngine):
            if workers_mode == "process":
                raise ValueError(
                    "process workers need an engine name from the registry; "
                    "engine instances cannot be shipped to child processes"
                )
            if workers > 1:
                raise ValueError(
                    "an engine instance cannot be shared across workers; "
                    "pass an engine name (each worker then builds its own)"
                )
        self.grammar = grammar
        self.n_workers = workers
        self.workers_mode = workers_mode
        self._start_method = start_method
        self._pool = None  # set by start() in process mode
        self._store = None
        self.max_queue = max_queue
        self.max_memory_bytes = max_memory_bytes
        self.admission = admission
        self.default_timeout = default_timeout
        self.metrics = ServiceMetrics()
        self._engine_spec = engine
        self._filter_limit = filter_limit
        self._template_cache_size = template_cache_size
        self._clock = clock
        self._batcher = ShapeBatcher(max_batch_size=max_batch_size, max_linger=max_linger)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # workers: new work queued
        self._space = threading.Condition(self._lock)  # producers: queue has room
        self._idle = threading.Condition(self._lock)  # drain: queue empty, nothing in flight
        self._state = "new"  # new -> running -> draining -> stopped
        self._in_flight = 0
        self._shape_bytes: dict = {}  # shape key -> measured network bytes
        self._queued_bytes = 0  # sum of est_bytes over queued requests
        self._workers: list[Worker] = []
        self._name = f"parse-service-{next(_service_ids)}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ParseService":
        """Spawn the worker pool and begin accepting requests."""
        with self._lock:
            if self._state != "new":
                raise ServiceUnavailable(
                    f"service is {self._state}; a ParseService starts exactly once"
                )
            self._state = "running"
        if self.workers_mode == "process":
            # Fork/spawn the process pool *before* any worker thread
            # exists (forking a multi-threaded parent copies lock state
            # mid-flight), and create the store the worker threads will
            # export templates into.  Shutdown order is the reverse:
            # pool first, store (unlink) second.
            from repro.parallel import ProcessPool, SharedTemplateStore

            self._store = SharedTemplateStore()
            self._pool = ProcessPool(
                self.grammar,
                self._engine_spec,
                workers=self.n_workers,
                start_method=self._start_method,
            )
        for index in range(self.n_workers):
            # A string spec makes each session build its own engine
            # instance via the registry; an instance spec (workers=1
            # only) passes through.
            session = ParserSession(
                self.grammar,
                engine=self._engine_spec,
                filter_limit=self._filter_limit,
                template_cache_size=self._template_cache_size,
            )
            worker = Worker(f"{self._name}-w{index}", self, session)
            self._workers.append(worker)
            worker.start()
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission, then wait for queued + in-flight work.

        Queued requests are force-flushed (linger/size rules waived)
        but deadlines still apply: an expired request drains as
        :class:`DeadlineExceeded`, not as a parse.  Returns ``True``
        when the service went idle, ``False`` on timeout.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            if self._state == "running":
                self._state = "draining"
            self._work.notify_all()
            self._space.notify_all()
            while len(self._batcher) > 0 or self._in_flight > 0:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop the service and join the workers.

        With ``wait=True`` (the default) all accepted work drains
        first.  With ``wait=False`` queued requests are abandoned —
        their futures fail with :class:`ServiceUnavailable` — and the
        workers exit after their current batch.
        """
        if wait:
            self.drain(timeout)
        with self._lock:
            self._state = "stopped"
            leftovers = self._batcher.clear()
            self._queued_bytes = 0
            self.metrics.queued_bytes.set(0)
            self.metrics.queue_depth.set(0)
            self._work.notify_all()
            self._space.notify_all()
            self._idle.notify_all()
        for request in leftovers:
            self.metrics.cancelled.inc()
            if not request.future.cancelled():
                request.future.set_exception(
                    ServiceUnavailable("service shut down before this request was dispatched")
                )
        for worker in self._workers:
            worker.join(timeout)
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "ParseService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    @property
    def state(self) -> str:
        return self._state

    # -- the producer API --------------------------------------------------

    def submit(
        self,
        sentence: "Sentence | str | Sequence[str]",
        *,
        timeout: "float | None | object" = _UNSET,
    ) -> "Future[ParseResult]":
        """Queue *sentence*; returns a future resolving to a ParseResult.

        Raises :class:`ServiceOverloaded` (queue full, reject mode) or
        :class:`ServiceUnavailable` (service not running).  The future
        fails with :class:`DeadlineExceeded` if the request's deadline
        passes before dispatch; ``future.cancel()`` before dispatch
        prevents the parse entirely.
        """
        sent = sentence if isinstance(sentence, Sentence) else self.grammar.tokenize(sentence)
        limit = self.default_timeout if timeout is _UNSET else timeout
        now = self._clock()
        request = ParseRequest(
            sentence=sent,
            key=sent.category_sets,
            enqueued=now,
            deadline=None if limit is None else now + limit,
        )
        with self._lock:
            self.metrics.submitted.inc()
            if self._state != "running":
                self.metrics.rejected.inc()
                raise ServiceUnavailable(f"service is {self._state}, not accepting requests")
            request.est_bytes = self._shape_bytes.get(request.key, 0)
            reason = self._admission_reason(request)
            if reason is not None:
                if self.admission == "reject":
                    self.metrics.rejected.inc()
                    raise ServiceOverloaded(
                        f"{reason}; retry later, raise the bound, or use admission='block'"
                    )
                while self._admission_reason(request) and self._state == "running":
                    # Only reachable under admission="block"; cluster shards
                    # pin admission="reject" (see ParseServer.__init__), so
                    # no event-loop thread can park here.
                    self._space.wait()  # repro-lint: ignore[RPR015]
                if self._state != "running":
                    self.metrics.rejected.inc()
                    raise ServiceUnavailable(f"service is {self._state}, not accepting requests")
            self._batcher.add(request)
            self._queued_bytes += request.est_bytes
            self.metrics.queued_bytes.set(self._queued_bytes)
            self.metrics.accepted.inc()
            self.metrics.queue_depth.set(len(self._batcher))
            self._work.notify()
        return request.future

    def parse(
        self,
        sentence: "Sentence | str | Sequence[str]",
        *,
        timeout: "float | None | object" = _UNSET,
    ) -> ParseResult:
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(sentence, timeout=timeout).result()

    def parse_many(
        self, sentences: Iterable["Sentence | str | Sequence[str]"]
    ) -> list[ParseResult]:
        """Submit a batch and gather results, index-aligned with input.

        Bit-identical to ``ParserSession.parse_many`` on the same
        sentences (the end-to-end test invariant); with ``admission=
        "reject"`` a batch larger than ``max_queue`` may overflow —
        size the queue or use blocking admission for bulk loads.
        """
        futures = [self.submit(sentence) for sentence in sentences]
        return [future.result() for future in futures]

    # -- streaming ---------------------------------------------------------

    def submit_stream(self) -> ServiceStream:
        """Open a word-at-a-time parse on this service.

        Each ``feed(word)`` submits the grown prefix through
        :meth:`submit` (see :class:`ServiceStream`), so stream tokens
        run on any worker, and in the process pool under
        ``workers_mode="process"``.  Raises :class:`ServiceUnavailable`
        when the service is not running.
        """
        if self._state != "running":
            raise ServiceUnavailable(f"service is {self._state}, not accepting requests")
        return ServiceStream(self)

    def _admission_reason(self, request: ParseRequest) -> "str | None":
        """Under the lock: why *request* cannot be queued now (None = admit).

        Queue depth is the hard bound; the memory bound additionally
        holds a request back while the *estimated* bytes of queued work
        would exceed ``max_memory_bytes``.  An empty queue always
        admits (a single oversized request must not deadlock), and an
        unprofiled shape (estimate 0) adds nothing to the sum.
        """
        queued = len(self._batcher)
        if queued >= self.max_queue:
            return f"queue full ({queued}/{self.max_queue} requests)"
        if (
            self.max_memory_bytes is not None
            and queued > 0
            and request.est_bytes
            and self._queued_bytes + request.est_bytes > self.max_memory_bytes
        ):
            return (
                f"queued work estimate {self._queued_bytes + request.est_bytes} bytes "
                f"exceeds max_memory_bytes={self.max_memory_bytes}"
            )
        return None

    def _note_network_bytes(self, key, nbytes: int) -> None:
        """Record a worker's measured per-shape network size (package-private)."""
        with self._lock:
            self._shape_bytes[key] = nbytes
        self.metrics.network_bytes.set(nbytes)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Metrics snapshot plus service state, cache and memory totals."""
        cache_bytes = sum(worker.session.cached_bytes() for worker in self._workers)
        self.metrics.template_cache_bytes.set(cache_bytes)
        snap = self.metrics.snapshot()
        caches = [worker.session.cache_info() for worker in self._workers]
        snap["service"] = {
            "state": self._state,
            "workers": len(self._workers),
            "workers_mode": self.workers_mode,
            "queued": len(self._batcher),
            "in_flight": self._in_flight,
            "template_cache": {
                field: sum(info[field] for info in caches)
                for field in ("hits", "misses", "evictions", "size")
            } if caches else {},
            "memory": {
                "max_memory_bytes": self.max_memory_bytes,
                "queued_bytes": self._queued_bytes,
                "template_cache_bytes": cache_bytes,
                "shared_store_bytes": 0 if self._store is None else self._store.nbytes(),
                "shapes_profiled": len(self._shape_bytes),
            },
        }
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParseService({self.grammar.name!r}, state={self._state!r}, "
            f"workers={self.n_workers}, queued={len(self._batcher)})"
        )

    # -- the worker side (package-private) ---------------------------------

    def _next_batch(self) -> "list[ParseRequest] | None":
        """Block until a shape-coherent batch is ready; None = exit.

        Expiry always runs before dispatch, so a request whose deadline
        passed while queued is *never* part of a returned batch.
        """
        while True:
            expired: list[ParseRequest] = []
            batch: list[ParseRequest] | None = None
            with self._lock:
                now = self._clock()
                expired = self._batcher.expire(now)
                if expired:
                    self._release_queued(expired)
                    self._queue_shrunk()
                else:
                    batch = self._batcher.pop_ready(now, force=self._state != "running")
                    if batch is not None:
                        self._in_flight += len(batch)
                        self._release_queued(batch)
                        self._queue_shrunk()
                        self.metrics.batch_size.observe(len(batch))
                        for request in batch:
                            self.metrics.queue_wait_seconds.observe(now - request.enqueued)
                    elif self._state == "stopped" and len(self._batcher) == 0:
                        return None
                    else:
                        wait = self._batcher.next_event(now)
                        # Clamp: a due-but-unready event (sub-resolution
                        # linger remainder) must not busy-spin.
                        self._work.wait(None if wait is None else max(wait, 1e-4))
                        continue
            if expired:
                self._finish_expired(expired)
                continue
            return batch

    def _finish_expired(self, requests: "list[ParseRequest]") -> None:
        """Complete dead requests outside the lock (futures run callbacks)."""
        for request in requests:
            if request.future.cancelled():
                self.metrics.cancelled.inc()
            elif request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    DeadlineExceeded(
                        "request deadline passed while queued "
                        f"(waited {self._clock() - request.enqueued:.3f}s); never dispatched"
                    )
                )
                self.metrics.expired.inc()
            else:  # cancelled in the gap between the two checks
                self.metrics.cancelled.inc()

    def _release_queued(self, requests: "list[ParseRequest]") -> None:
        """Under the lock: drop dispatched/expired requests' byte estimates."""
        self._queued_bytes -= sum(r.est_bytes for r in requests)
        if len(self._batcher) == 0:
            self._queued_bytes = 0
        self.metrics.queued_bytes.set(self._queued_bytes)

    def _queue_shrunk(self) -> None:
        """Under the lock: refresh the gauge, wake producers and drain."""
        depth = len(self._batcher)
        self.metrics.queue_depth.set(depth)
        self._space.notify_all()
        if depth == 0 and self._in_flight == 0:
            self._idle.notify_all()

    def _batch_done(self, n: int) -> None:
        with self._lock:
            self._in_flight -= n
            if self._in_flight == 0 and len(self._batcher) == 0:
                self._idle.notify_all()
