"""The router: consistent-hash fan-out across shard servers.

:class:`ShardRouter` is the placement policy — shape in, shard address
out — and :class:`ClusterClient` is the data plane around it: one TCP
connection per shard, a background asyncio loop on a daemon thread, and
a synchronous facade (`submit` / `parse_many` / `submit_stream`) that
mirrors :class:`~repro.serve.ParseService` so call sites migrate by
swapping the constructor; `submit_stream` returns the same
:class:`~repro.serve.ServiceStream` handle.

Three design points carry the correctness weight:

**Materialization.**  Shards reply with packed network bits only
(``alive_bits`` / ``matrix_bits``), kilobytes per sentence.  The client
owns a :class:`~repro.pipeline.session.ParserSession` whose template
cache rebinds those bits into full :class:`~repro.engines.base.ParseResult`
objects via :func:`~repro.parallel.pool.materialize_result` — the same
parent-side rebind the process pool uses, so cluster results are
bit-identical to in-process ones by construction.  All template work
happens on the loop thread; sessions are single-threaded by contract.

**Deadline propagation without double-counting.**  A caller timeout is
fixed as a monotonic deadline at ``submit``.  The *remaining* budget is
computed at the instant the frame is written and travels in the frame;
the shard restarts the clock from receipt.  The client never times out
an in-flight request — the shard owns the deadline once the frame is
sent — so batcher linger on the shard and wire latency each count once,
never twice.  A budget already spent at write time fails locally and
the frame is never sent.

**Drain before close.**  ``drain()`` waits until every in-flight
request has its reply; ``close(wait=True)`` drains first and only then
closes sockets, so shutdown cannot orphan verdicts that a shard already
computed.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
import time
from concurrent.futures import Future
from typing import Hashable, Iterable, Sequence

from repro.cluster.errors import (
    ClusterError,
    ConnectionClosed,
    FrameTooLarge,
    ShardUnavailable,
    WireError,
)
from repro.cluster.ring import HashRing
from repro.cluster.wire import (
    DEFAULT_MAX_FRAME,
    decode,
    encode,
    read_frame,
    unpack_stats,
    write_frame,
)
from repro.engines.base import ParseResult
from repro.errors import LexiconError
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.parallel.pool import WireResult, materialize_result
from repro.pipeline.session import ParserSession
from repro.serve import (
    DeadlineExceeded,
    ServiceOverloaded,
    ServiceStream,
    ServiceUnavailable,
)

_UNSET = object()

#: Wire error kinds mapped back onto the richest local exception type.
_KIND_ERRORS = {
    "deadline": DeadlineExceeded,
    "overloaded": ServiceOverloaded,
    "unavailable": ServiceUnavailable,
    "lexicon": LexiconError,
    "wire": WireError,
}


def _error_for(kind: str, message: str) -> Exception:
    return _KIND_ERRORS.get(kind, ClusterError)(message)


class ShardRouter:
    """Placement policy: sentence shape → shard address.

    Routing by shape (the ``category_sets`` tuple — also the template
    cache key and the batcher group key) gives each shard a *slice* of
    the shape space: its template cache and, in process mode, its
    :class:`~repro.parallel.shared.SharedTemplateStore` hold only the
    shapes the ring assigns it, and every batch it forms stays
    single-shape.
    """

    def __init__(self, addresses: Sequence[str], *, replicas: int | None = None):
        kwargs = {} if replicas is None else {"replicas": replicas}
        self.ring = HashRing(addresses, **kwargs)

    @property
    def addresses(self) -> tuple[str, ...]:
        return self.ring.nodes

    def shape_of(self, sentence: Sentence) -> Hashable:
        return sentence.category_sets

    def shard_for(self, sentence: Sentence) -> str:
        """The address owning *sentence*'s shape."""
        return self.ring.node_for(self.shape_of(sentence))

    def spread(self, sentences: Iterable[Sentence]) -> dict[str, int]:
        """Sentences per shard (diagnostics and placement tests)."""
        return self.ring.spread([self.shape_of(sentence) for sentence in sentences])


class _Pending:
    """One in-flight request: reply routing plus materialization inputs."""

    __slots__ = ("rid", "future", "sentence", "conn", "deadline")

    def __init__(self, rid, future, sentence=None, conn=None, deadline=None):
        self.rid = rid
        self.future = future
        self.sentence = sentence
        self.conn = conn
        self.deadline = deadline


class _ShardConn:
    """One shard's connection state, touched only on the loop thread."""

    __slots__ = ("address", "reader", "writer", "task", "dead")

    def __init__(self, address: str):
        self.address = address
        self.reader = None
        self.writer = None
        self.task = None
        self.dead = False


class ClusterClient:
    """Synchronous cluster facade: routes, sends, reassembles.

    Args:
        grammar: grammar shared with the shards (materialization needs
            the same templates the shards parsed under).
        addresses: ``"host:port"`` shard addresses; placement depends
            only on the address strings, so a stable fleet keeps a
            stable shape→shard map across client restarts.
        engine: engine name, for the materialization session (must
            match the shards for stats provenance; bits are engine-
            independent by the repo's bit-identity invariant).
        default_timeout: per-request deadline applied when ``submit``
            is called without one (None = no deadline).
        replicas: consistent-hash virtual points per shard.
        template_cache_size: client-side rebind cache (shapes, LRU).
        max_frame: wire frame bound, both directions.
        connect_timeout: bound on initial connection establishment.
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        addresses: Sequence[str],
        *,
        engine: str = "vector",
        default_timeout: float | None = None,
        replicas: int | None = None,
        template_cache_size: int = 64,
        max_frame: int = DEFAULT_MAX_FRAME,
        connect_timeout: float = 10.0,
    ):
        self.grammar = grammar
        self.engine = engine
        self.default_timeout = default_timeout
        self.max_frame = max_frame
        self.router = ShardRouter(addresses, replicas=replicas)
        self._session = ParserSession(
            grammar, engine=engine, template_cache_size=template_cache_size
        )
        self._ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._conns: dict[str, _ShardConn] = {}
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run(connect_timeout)),
            name="cluster-client",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(connect_timeout + 5.0):
            raise ClusterError("cluster client failed to start in time")
        if self._startup_error is not None:
            self._thread.join(5.0)
            raise ClusterError(
                f"could not connect to shards: {self._startup_error}"
            ) from self._startup_error

    # -- loop-thread plumbing ----------------------------------------------

    async def _run(self, connect_timeout: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        try:
            for address in self.router.addresses:
                conn = _ShardConn(address)
                host, _, port = address.rpartition(":")
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, int(port)), connect_timeout
                )
                self._register_socket(conn, reader, writer)
        except BaseException as error:  # noqa: BLE001 - reported to the starter
            self._startup_error = error
            await self._teardown()
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self._teardown()

    def _register_socket(self, conn: _ShardConn, reader, writer) -> None:
        """Adopt a socket into the client lifecycle: reader task now,
        writer close on teardown (the RPR012 contract, by registration)."""
        conn.reader = reader
        conn.writer = writer
        conn.task = self._loop.create_task(self._read_loop(conn))
        self._conns[conn.address] = conn

    async def _teardown(self) -> None:
        for conn in self._conns.values():
            if conn.task is not None:
                conn.task.cancel()
            if conn.writer is not None:
                conn.writer.close()
                with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
                    await conn.writer.wait_closed()
        for entry in list(self._pending.values()):
            if not entry.future.done():
                entry.future.set_exception(
                    ShardUnavailable("cluster client closed with requests in flight")
                )
        self._pending.clear()

    async def _read_loop(self, conn: _ShardConn) -> None:
        closed = (ConnectionClosed, FrameTooLarge, WireError, OSError, asyncio.CancelledError)
        try:
            with contextlib.suppress(*closed):
                while True:
                    payload = await read_frame(conn.reader, max_frame=self.max_frame)
                    try:
                        message = decode(payload)
                    except WireError:
                        continue  # a frame we cannot parse names no request
                    if isinstance(message, dict):
                        self._dispatch(conn, message)
        finally:
            self._fail_shard(conn)

    def _fail_shard(self, conn: _ShardConn) -> None:
        conn.dead = True
        dropped = [entry for entry in self._pending.values() if entry.conn is conn]
        for entry in dropped:
            self._pending.pop(entry.rid, None)
            if not entry.future.done():
                entry.future.set_exception(
                    ShardUnavailable(f"shard {conn.address} disconnected mid-request")
                )
        self._note_idle()

    def _note_idle(self) -> None:
        if not self._pending:
            self._idle.set()

    def _dispatch(self, conn: _ShardConn, message: dict) -> None:
        rid = message.get("id")
        entry = self._pending.pop(rid, None)
        if entry is None:
            return  # connection-level error frame or a reply we gave up on
        mtype = message.get("type")
        try:
            if mtype == "result":
                self._settle_result(entry, message)
            elif mtype == "error":
                entry.future.set_exception(_error_for(
                    str(message.get("kind")), str(message.get("message"))
                ))
            else:  # ok / pong / snapshot: control replies carry their payload
                entry.future.set_result(message)
        except BaseException as error:  # noqa: BLE001 - surfaced on the future
            if not entry.future.done():
                entry.future.set_exception(error)
        finally:
            self._note_idle()

    def _settle_result(self, entry: _Pending, message: dict) -> None:
        wire = WireResult(
            alive_bits=message["alive_bits"],
            matrix_bits=message["matrix_bits"],
            locally_consistent=bool(message["locally_consistent"]),
            ambiguous=bool(message["ambiguous"]),
            stats=unpack_stats(message["stats"]),
        )
        template = self._session.template_for(entry.sentence)
        entry.future.set_result(materialize_result(template, entry.sentence, wire))

    async def _send_async(self, address: str, message: dict, entry: _Pending) -> None:
        conn = self._conns.get(address)
        if conn is None or conn.dead:
            entry.future.set_exception(ShardUnavailable(f"shard {address} is not connected"))
            return
        entry.conn = conn
        self._pending[entry.rid] = entry
        self._idle.clear()
        if entry.deadline is not None:
            # The budget is measured NOW, at frame-write time: time the
            # caller spent before the send does not leak into the
            # shard's clock, and the shard's queue time will not be
            # counted again by the client.
            budget = entry.deadline - time.monotonic()
            if budget <= 0:
                self._pending.pop(entry.rid, None)
                self._note_idle()
                entry.future.set_exception(DeadlineExceeded(
                    f"deadline spent before the request reached shard {address}"
                ))
                return
            message["budget"] = budget
        try:
            write_frame(conn.writer, encode(message))
            await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as error:
            self._pending.pop(entry.rid, None)
            self._note_idle()
            if not entry.future.done():
                entry.future.set_exception(
                    ShardUnavailable(f"shard {address} went away during send: {error}")
                )

    def _post(self, address: str, message: dict, entry: _Pending) -> None:
        asyncio.run_coroutine_threadsafe(
            self._send_async(address, message, entry), self._loop
        )

    # -- the synchronous facade --------------------------------------------

    def submit(self, sentence, *, timeout=_UNSET) -> "Future[ParseResult]":
        """Route one sentence to its shard; returns a result future.

        Mirrors :meth:`ParseService.submit` semantics: tokenization (and
        its :class:`LexiconError`) happens synchronously at the door;
        deadlines start now; overload and deadline failures arrive
        through the future as the same exception types.
        """
        if self._closed:
            raise ServiceUnavailable("cluster client is closed")
        sent = self.grammar.tokenize(sentence) if not isinstance(sentence, Sentence) else sentence
        limit = self.default_timeout if timeout is _UNSET else timeout
        deadline = None if limit is None else time.monotonic() + limit
        address = self.router.shard_for(sent)
        future: Future[ParseResult] = Future()
        entry = _Pending(next(self._ids), future, sentence=sent, deadline=deadline)
        self._post(address, {"type": "parse", "id": entry.rid,
                             "words": list(sent.words), "budget": None}, entry)
        return future

    def parse_many(self, sentences, *, timeout=_UNSET) -> "list[ParseResult]":
        """Fan a batch across the ring; results come back in input order.

        Requests complete in whatever order shards finish; reassembly
        is by submission order (each future is awaited in turn), so the
        returned list is index-aligned with the input regardless of
        arrival order.
        """
        futures = [self.submit(sentence, timeout=timeout) for sentence in sentences]
        return [future.result() for future in futures]

    def submit_stream(self) -> ServiceStream:
        """Open a word-at-a-time parse over this client.

        Each ``feed(word)`` submits the grown prefix through
        :meth:`submit` (see :class:`~repro.serve.ServiceStream`), so
        every prefix routes by its own shape like any request; no shard
        holds stream state.
        """
        if self._closed:
            raise ServiceUnavailable("cluster client is closed")
        return ServiceStream(self)

    # -- control plane ------------------------------------------------------

    def _control(self, address: str, mtype: str, timeout: float) -> dict:
        future: Future = Future()
        entry = _Pending(next(self._ids), future)
        self._post(address, {"type": mtype, "id": entry.rid}, entry)
        return future.result(timeout)

    def ping(self, *, timeout: float = 10.0) -> "dict[str, dict]":
        """Pong (shard id, address, service state) per shard."""
        return {address: self._control(address, "ping", timeout)
                for address in self.router.addresses}

    def snapshot(self, *, timeout: float = 30.0) -> "dict[str, dict]":
        """Each shard's full :meth:`ParseService.snapshot`."""
        return {address: self._control(address, "snapshot", timeout)["snapshot"]
                for address in self.router.addresses}

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every in-flight request's reply; True when idle.

        Shard-side service drains are separate (`ask via snapshot` or
        the launcher); this drains the *wire*: after it returns True
        there are no unanswered frames, which is the precondition
        ``close(wait=True)`` needs to never orphan a computed verdict.
        """
        async def _wait_idle():
            await self._idle.wait()

        handle = asyncio.run_coroutine_threadsafe(_wait_idle(), self._loop)
        try:
            handle.result(timeout)
            return True
        except TimeoutError:
            handle.cancel()
            return False

    def close(self, *, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Shut the client down; with ``wait``, drain in-flight replies first."""
        if self._closed:
            return
        self._closed = True
        if wait and self._loop is not None and not self._loop.is_closed():
            self.drain(timeout)
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)

    def cache_info(self) -> "dict[str, int]":
        """The client-side rebind template cache's counters."""
        return self._session.cache_info()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterClient({len(self.router.addresses)} shards, engine={self.engine!r})"
