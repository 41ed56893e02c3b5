"""Worker threads: each owns a private :class:`ParserSession`.

Sessions are single-threaded by contract (they share scratch buffers
across the sentences they bind, and guard against concurrent entry with
:class:`~repro.errors.ConcurrentSessionUse`).  The service therefore
never shares a session: every worker constructs its own at start-up and
is the only thread that ever parses through it.  Concurrency safety is
a property of the *service*, not the session.

The loop is pull-based: a worker blocks in
``ParseService._next_batch()`` until the batcher releases a
shape-coherent batch (or the service stops, which returns ``None``),
executes the batch request by request — every sentence after the first
is a template-cache hit, since batches are single-shape — and resolves
each request's future with the :class:`ParseResult` or the engine's
exception.

Under ``workers_mode="process"`` the same thread instead *dispatches*
the batch: it exports the batch's (single) template to the service's
shared store, ships the word lists to the process pool, blocks on the
chunk, and rebinds the wire results — so admission, deadlines,
cancellation, metrics and drain behave identically in both modes while
the parsing itself runs on other cores.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.pipeline.session import ParserSession

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.batcher import ParseRequest
    from repro.serve.service import ParseService


class Worker:
    """One service worker: a thread, a session, and the execute loop."""

    def __init__(self, name: str, service: "ParseService", session: ParserSession):
        self.name = name
        self.session = session
        self._service = service
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the loop ----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            batch = self._service._next_batch()
            if batch is None:
                return
            try:
                self._execute(batch)
            finally:
                self._service._batch_done(len(batch))

    def _execute(self, batch: "list[ParseRequest]") -> None:
        if self._service._pool is not None:
            self._execute_process(batch)
            return
        metrics = self._service.metrics
        clock = self._service._clock
        for request in batch:
            # A future cancelled after queueing but before dispatch is
            # honoured here: set_running_or_notify_cancel() refuses to
            # start it and we never parse the sentence.
            if not request.future.set_running_or_notify_cancel():
                metrics.cancelled.inc()
                continue
            try:
                result = self.session.parse(request.sentence)
            except BaseException as error:  # noqa: BLE001 - delivered via future
                request.future.set_exception(error)
                metrics.failed.inc()
            else:
                request.future.set_result(result)
                metrics.completed.inc()
                metrics.latency_seconds.observe(clock() - request.enqueued)
                # Feed the per-shape memory profile back into admission:
                # the session measured the settled network's resident
                # bytes, keyed by the same shape key batches group on.
                nbytes = result.stats.extra.get("network_bytes")
                if nbytes:
                    self._service._note_network_bytes(request.key, nbytes)

    def _execute_process(self, batch: "list[ParseRequest]") -> None:
        """Dispatch one single-shape batch to the service's process pool."""
        from repro.parallel.pool import materialize_result

        service = self._service
        metrics = service.metrics
        clock = service._clock
        live: list[ParseRequest] = []
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                metrics.cancelled.inc()
        if not live:
            return
        try:
            # Batches are single-shape by construction, so one template
            # covers the batch; the export is idempotent per shape.
            template = self.session.template_for(live[0].sentence)
            handle = service._store.export(template, self.session.compiled)
            metrics.shared_store_bytes.set(service._store.nbytes())
            wires = service._pool.run_chunk(
                handle,
                [request.sentence.words for request in live],
                service._filter_limit,
            )
        except BaseException as error:  # noqa: BLE001 - delivered via futures
            for request in live:
                request.future.set_exception(error)
                metrics.failed.inc()
            return
        for request, wire in zip(live, wires, strict=True):
            result = materialize_result(template, request.sentence, wire)
            request.future.set_result(result)
            metrics.completed.inc()
            metrics.latency_seconds.observe(clock() - request.enqueued)
            nbytes = result.stats.extra.get("network_bytes")
            if nbytes:
                service._note_network_bytes(request.key, nbytes)
