"""The shard server: a :class:`ParseService` behind a TCP wire.

One :class:`ParseServer` owns one :class:`~repro.serve.ParseService`
(thread or process workers — the whole PR-5 data plane rides along
unchanged) and fronts it on a localhost socket speaking the
length-prefixed frame protocol of :mod:`repro.cluster.wire`.  The
asyncio side stays thin: frames are decoded, validated, and turned into
``service.submit`` calls whose futures are awaited as tasks, so the
event loop never blocks on a parse and replies go out in *completion*
order (request ids, not arrival order, pair replies to requests — the
router reassembles).  A client-side stream is a sequence of ordinary
``parse`` frames, one per grown prefix; the shard keeps no stream
state.

Deadline propagation: a request frame carries its remaining budget in
seconds, measured by the router at *send* time.  The shard converts the
budget to its own monotonic deadline on receipt, so queue linger counts
against the request exactly once, on the machine whose queue it is; a
frame whose budget is already spent is rejected with a typed error and
the connection stays healthy (the satellite contract: bad frames never
poison the wire).

Every shard writes timestamped structured logs (``event=recv`` /
``event=done`` / ``event=reject`` lines keyed by connection and request
id) that :mod:`repro.cluster.logs` parses into merged throughput and
latency numbers — the BFT-MVBA ``LogParser`` pattern, where timing is
derived from what the nodes actually logged rather than what a load
generator hoped.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from datetime import datetime, timezone
from pathlib import Path

from repro.cluster.errors import ClusterError, ConnectionClosed, FrameTooLarge, WireError
from repro.cluster.wire import (
    DEFAULT_MAX_FRAME,
    decode,
    encode,
    pack_stats,
    read_frame,
    write_frame,
)
from repro.errors import LexiconError, ReproError
from repro.grammar.grammar import CDGGrammar
from repro.serve import (
    DeadlineExceeded,
    ParseService,
    ServiceOverloaded,
    ServiceUnavailable,
)

#: Wire error kinds, mapped back to local exception types by the router.
KIND_DEADLINE = "deadline"
KIND_OVERLOADED = "overloaded"
KIND_UNAVAILABLE = "unavailable"
KIND_LEXICON = "lexicon"
KIND_WIRE = "wire"
KIND_INTERNAL = "internal"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class ShardLog:
    """Timestamped structured shard log: one line per event.

    Format (space-separated ``key=value`` pairs after a fixed prefix)::

        2026-08-08T12:00:00.000001+00:00 shard=1 event=recv conn=2 id=7 kind=parse n=5

    Values never contain spaces (counts, flags, short kind names), so
    the harness parses lines with anchored regexes.  Writes are
    line-buffered and serialized under a lock — the asyncio loop and
    the service's worker threads both log.
    """

    def __init__(self, path: "Path | str | None", shard_id: int):
        self.path = None if path is None else Path(path)
        self.shard_id = shard_id
        self._lock = threading.Lock()
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Held for the server's lifetime; closed by ShardLog.close().
            self._file = open(self.path, "a", buffering=1, encoding="utf-8")  # noqa: SIM115

    def write(self, event: str, **fields) -> None:
        if self._file is None:
            return
        parts = [f"{_utc_now()} shard={self.shard_id} event={event}"]
        parts.extend(f"{key}={value}" for key, value in fields.items())
        line = " ".join(parts)
        with self._lock:
            if self._file is not None:
                # Line-buffered append to a local file — the logging-module
                # precedent; pushing it off-loop would reorder shard log lines.
                self._file.write(line + "\n")  # repro-lint: ignore[RPR015]

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class _Connection:
    """Per-connection state: serialized writes plus live reply tasks."""

    __slots__ = ("conn_id", "writer", "write_lock", "tasks")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()


class ParseServer:
    """One cluster shard: a TCP server fronting a :class:`ParseService`.

    Args:
        grammar: the grammar this shard parses under.
        engine: engine *name* from the registry (instances cannot be
            configured per worker over the wire).
        host / port: bind address; ``port=0`` asks the OS for a free
            port (read it back from :attr:`port` after start).
        shard_id: stamped into every log line and pong.
        workers / workers_mode / start_method /
        max_queue / max_batch_size / max_linger / filter_limit:
            forwarded to the underlying :class:`ParseService`, which
            runs the packed kernel core.  Admission is always
            ``"reject"`` — blocking admission would park the event
            loop; overload travels to the router as a typed error.
        log_path: shard log file (None disables logging).
        port_file: when set, ``host:port`` is written there once
            listening — the launcher's readiness and discovery channel.
        max_frame: wire frame bound, both directions.
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        engine: str = "vector",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_id: int = 0,
        workers: int = 1,
        workers_mode: str = "thread",
        start_method: str | None = None,
        max_queue: int = 1024,
        max_batch_size: int = 16,
        max_linger: float = 0.002,
        filter_limit: int | None = None,
        log_path: "Path | str | None" = None,
        port_file: "Path | str | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.grammar = grammar
        self.engine = engine
        self.host = host
        self.port = port
        self.shard_id = shard_id
        self.max_frame = max_frame
        self.log = ShardLog(log_path, shard_id)
        self._port_file = None if port_file is None else Path(port_file)
        self._service_kwargs = dict(
            workers=workers,
            workers_mode=workers_mode,
            start_method=start_method,
            max_queue=max_queue,
            max_batch_size=max_batch_size,
            max_linger=max_linger,
            filter_limit=filter_limit,
            admission="reject",
        )
        self.service: ParseService | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._conn_ids = itertools.count(1)
        self._connections: set[_Connection] = set()
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    async def _start_async(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = ParseService(self.grammar, engine=self.engine, **self._service_kwargs)
        self.service.start()
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.log.write("ready", addr=self.address, engine=self.engine,
                       workers=self._service_kwargs["workers"],
                       workers_mode=self._service_kwargs["workers_mode"])
        if self._port_file is not None:
            # Disk I/O off the event loop: a slow or network-mounted run
            # directory must not stall connection handling at startup.
            await self._loop.run_in_executor(None, self._publish_port_file)

    def _publish_port_file(self) -> None:
        """Write ``host:port`` to the port file (runs in an executor)."""
        self._port_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._port_file.with_suffix(self._port_file.suffix + ".tmp")
        tmp.write_text(f"{self.address}\n")
        tmp.replace(self._port_file)  # atomic: readers never see a partial write

    async def _shutdown_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            for task in list(conn.tasks):
                task.cancel()
            conn.writer.close()
        # Drain accepted work, then stop the service — in an executor so
        # the loop stays responsive while worker threads finish.
        if self.service is not None:
            await asyncio.get_running_loop().run_in_executor(None, self.service.drain)
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.service.shutdown(wait=True)
            )
        self.log.write("stop")
        self.log.close()

    async def _run_until_stopped(self, *, signals: bool = False) -> None:
        try:
            await self._start_async()
        except BaseException as error:  # noqa: BLE001 - reported to the starter
            self._startup_error = error
            self._ready.set()
            raise
        if signals:
            import signal as _signal

            loop = asyncio.get_running_loop()
            for signum in (_signal.SIGTERM, _signal.SIGINT):
                loop.add_signal_handler(signum, self._stop.set)
        self._ready.set()
        await self._stop.wait()
        await self._shutdown_async()

    def serve_forever(self) -> None:
        """Run in the calling thread until SIGTERM/SIGINT (shard entry point)."""
        asyncio.run(self._run_until_stopped(signals=True))

    def start_background(self, timeout: float = 30.0) -> "ParseServer":
        """Run the server on a daemon thread; returns once listening."""
        if self._thread is not None:
            raise ClusterError("ParseServer.start_background called twice")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run_until_stopped()),
            name=f"parse-server-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ClusterError(f"shard {self.shard_id} did not start within {timeout}s")
        if self._startup_error is not None:
            raise ClusterError(
                f"shard {self.shard_id} failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop a background server: drain, shut the service down, join."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ParseServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the connection protocol -------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        conn = _Connection(next(self._conn_ids), writer)
        self._connections.add(conn)
        self.log.write("conn", conn=conn.conn_id)
        try:
            # A peer reset mid-read is a disconnect, not a server error.
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                while True:
                    try:
                        payload = await read_frame(reader, max_frame=self.max_frame)
                    except ConnectionClosed:
                        break
                    except FrameTooLarge as error:
                        if not error.recoverable:
                            self.log.write("reject", conn=conn.conn_id, kind="frame-corrupt")
                            break
                        self.log.write("reject", conn=conn.conn_id, kind="frame-oversized")
                        await self._send(conn, _error_message(None, KIND_WIRE, str(error)))
                        continue
                    except WireError as error:
                        self.log.write("reject", conn=conn.conn_id, kind="frame-malformed")
                        await self._send(conn, _error_message(None, KIND_WIRE, str(error)))
                        continue
                    await self._handle_frame(conn, payload)
        finally:
            self._connections.discard(conn)
            self.log.write("disconnect", conn=conn.conn_id)
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
                await writer.wait_closed()

    async def _handle_frame(self, conn: _Connection, payload: bytes) -> None:
        try:
            message = decode(payload)
            if not isinstance(message, dict):
                raise WireError("message payload must be a dict")
            mtype = _field(message, "type", str)
        except WireError as error:
            self.log.write("reject", conn=conn.conn_id, kind="payload-malformed")
            await self._send(conn, _error_message(None, KIND_WIRE, str(error)))
            return
        handler = {
            "parse": self._on_parse,
            "ping": self._on_ping,
            "snapshot": self._on_snapshot,
            "drain": self._on_drain,
        }.get(mtype)
        if handler is None:
            await self._send(conn, _error_message(
                message.get("id"), KIND_WIRE, f"unknown message type {mtype!r}"
            ))
            return
        try:
            await handler(conn, message)
        except WireError as error:
            self.log.write("reject", conn=conn.conn_id, kind="payload-invalid")
            await self._send(conn, _error_message(message.get("id"), KIND_WIRE, str(error)))

    # -- request handlers --------------------------------------------------

    async def _on_parse(self, conn: _Connection, message: dict) -> None:
        rid = _field(message, "id", int)
        words = _field(message, "words", list)
        budget = message.get("budget")
        if budget is not None and not isinstance(budget, (int, float)):
            raise WireError("budget must be a number or None")
        if not all(isinstance(word, str) for word in words):
            raise WireError("words must be a list of strings")
        self.log.write("recv", conn=conn.conn_id, id=rid, kind="parse", n=len(words))
        future = self._submit(conn, rid, budget, lambda t: self.service.submit(words, timeout=t))
        if future is not None:
            self._spawn_reply(conn, rid, future)

    async def _on_ping(self, conn: _Connection, message: dict) -> None:
        rid = _field(message, "id", int)
        await self._send(conn, {
            "type": "pong",
            "id": rid,
            "shard": self.shard_id,
            "addr": self.address,
            "state": "stopped" if self.service is None else self.service.state,
        })

    async def _on_snapshot(self, conn: _Connection, message: dict) -> None:
        rid = _field(message, "id", int)
        snap = self.service.snapshot()
        await self._send(conn, {"type": "snapshot", "id": rid, "snapshot": snap})

    async def _on_drain(self, conn: _Connection, message: dict) -> None:
        rid = _field(message, "id", int)
        self.log.write("drain", conn=conn.conn_id)
        ok = await asyncio.get_running_loop().run_in_executor(None, self.service.drain)
        await self._send(conn, {"type": "ok", "id": rid, "idle": bool(ok)})

    # -- submission and replies --------------------------------------------

    def _submit(self, conn: _Connection, rid: int, budget, submit_call):
        """Admission at the shard door; returns the future or None (rejected).

        The budget was measured by the router at send time, so it is
        the single deadline source here: an already-expired budget is
        refused before touching the service, and a live one becomes the
        service deadline from *this* instant — queue linger on this
        shard counts against it exactly once.
        """
        if budget is not None and budget <= 0:
            # Fire-and-forget reply: the reject path must not await
            # inside the frame handler's critical path.
            self._spawn(conn, self._reject(
                conn, rid, KIND_DEADLINE,
                f"request budget was spent before the frame arrived ({budget:.6f}s)",
            ))
            return None
        try:
            return submit_call(budget)
        except DeadlineExceeded as error:
            self._spawn(conn, self._reject(conn, rid, KIND_DEADLINE, str(error)))
        except ServiceOverloaded as error:
            self._spawn(conn, self._reject(conn, rid, KIND_OVERLOADED, str(error)))
        except ServiceUnavailable as error:
            self._spawn(conn, self._reject(conn, rid, KIND_UNAVAILABLE, str(error)))
        except LexiconError as error:
            self._spawn(conn, self._reject(conn, rid, KIND_LEXICON, str(error)))
        return None

    def _spawn(self, conn: _Connection, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    def _spawn_reply(self, conn: _Connection, rid: int, future) -> None:
        self._spawn(conn, self._reply(conn, rid, future))

    async def _reply(self, conn: _Connection, rid: int, future) -> None:
        try:
            result = await asyncio.wrap_future(future)
        except DeadlineExceeded as error:
            await self._reject(conn, rid, KIND_DEADLINE, str(error))
            return
        except ReproError as error:
            await self._reject(conn, rid, KIND_INTERNAL,
                               f"{type(error).__name__}: {error}")
            return
        except asyncio.CancelledError:
            return
        except BaseException as error:  # noqa: BLE001 - reported to the peer
            await self._reject(conn, rid, KIND_INTERNAL,
                               f"{type(error).__name__}: {error}")
            return
        network = result.network
        await self._send(conn, {
            "type": "result",
            "id": rid,
            "alive_bits": network.alive_bits,
            "matrix_bits": network.matrix_bits,
            "locally_consistent": result.locally_consistent,
            "ambiguous": result.ambiguous,
            "stats": pack_stats(result.stats),
        })
        self.log.write("done", conn=conn.conn_id, id=rid, ok=1,
                       consistent=int(result.locally_consistent),
                       ms=round(result.stats.wall_seconds * 1000, 3))

    async def _reject(self, conn: _Connection, rid: int, kind: str, message: str) -> None:
        await self._send(conn, _error_message(rid, kind, message))
        self.log.write("reject", conn=conn.conn_id, id=rid, kind=kind)

    async def _send(self, conn: _Connection, message: dict) -> None:
        payload = encode(message)
        # A vanished peer is the disconnect path's problem, not the sender's.
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, RuntimeError):
            async with conn.write_lock:
                write_frame(conn.writer, payload)
                await conn.writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParseServer(shard={self.shard_id}, addr={self.address!r})"


def _field(message: dict, name: str, expected: type):
    value = message.get(name)
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise WireError(
            f"field {name!r} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value


def _error_message(rid, kind: str, message: str) -> dict:
    return {"type": "error", "id": rid, "kind": kind, "message": message}
