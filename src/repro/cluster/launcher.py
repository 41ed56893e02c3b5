"""The cluster launcher: shards as subprocesses, lifecycle as a value.

:class:`ClusterLauncher` turns ``repro cluster up --shards N`` into N
shard subprocesses (each running ``python -m repro cluster shard``,
i.e. one :class:`~repro.cluster.server.ParseServer` owning one
:class:`~repro.serve.ParseService`), discovers their OS-assigned ports
through per-shard *port files* (written atomically by the shard once it
listens — stdout pipes would deadlock and signals would race), and
mirrors the service lifecycle: ``start()`` → running, ``drain()`` →
idle shards, ``shutdown()`` → SIGTERM, graceful drain inside each
shard, ``SIGKILL`` only for the unresponsive.

Per-shard process isolation is the point, not an implementation detail:
each shard owns its slice of the shape space, so its template cache and
(in process mode) its :class:`~repro.parallel.shared.SharedTemplateStore`
hold only the shapes the ring routes to it, and a shard crash loses one
slice rather than the fleet.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.cluster.errors import ClusterError
from repro.cluster.router import ClusterClient
from repro.grammar.grammar import CDGGrammar

_POLL = 0.05


class ClusterLauncher:
    """Spawn, watch, and stop a fleet of shard subprocesses.

    Args:
        grammar_spec: a built-in grammar name or a ``.cdg`` path — a
            *string*, because each shard re-resolves it in its own
            process (grammars do not cross the spawn boundary).
        shards: shard count.
        engine / workers / workers_mode / max_batch_size / max_linger:
            forwarded to every shard's service on the shard command
            line.  Every shard runs the packed kernel core.
        run_dir: where port files, shard logs, and captured
            stdout/stderr live.  Defaults to ``.repro-cluster/<pid>``
            under the working directory.
        host: bind address for every shard (localhost clusters are the
            supported shape; the wire protocol itself is host-agnostic).
    """

    def __init__(
        self,
        grammar_spec: str,
        *,
        shards: int = 2,
        engine: str = "vector",
        workers: int = 1,
        workers_mode: str = "thread",
        max_batch_size: int = 16,
        max_linger: float = 0.002,
        run_dir: "Path | str | None" = None,
        host: str = "127.0.0.1",
    ):
        if shards < 1:
            raise ClusterError(f"a cluster needs at least one shard, got {shards}")
        self.grammar_spec = grammar_spec
        self.shards = shards
        self.engine = engine
        self.workers = workers
        self.workers_mode = workers_mode
        self.max_batch_size = max_batch_size
        self.max_linger = max_linger
        self.host = host
        self.run_dir = Path(run_dir) if run_dir is not None else (
            Path.cwd() / ".repro-cluster" / str(os.getpid())
        )
        self._procs: list[subprocess.Popen] = []
        self._addresses: list[str] = []
        self._stdio: list = []

    # -- paths -------------------------------------------------------------

    def log_path(self, index: int) -> Path:
        return self.run_dir / f"shard-{index}.log"

    def port_path(self, index: int) -> Path:
        return self.run_dir / f"shard-{index}.port"

    @property
    def addresses(self) -> "tuple[str, ...]":
        return tuple(self._addresses)

    @property
    def log_dir(self) -> Path:
        return self.run_dir

    # -- lifecycle ---------------------------------------------------------

    def start(self, timeout: float = 60.0) -> "ClusterLauncher":
        """Spawn every shard and wait until all of them are listening."""
        if self._procs:
            raise ClusterError("cluster is already started")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        # The shards must import the same repro the launcher runs; the
        # launcher's copy wins over whatever PYTHONPATH says.
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for index in range(self.shards):
            self.port_path(index).unlink(missing_ok=True)
            command = [
                sys.executable, "-m", "repro", "cluster", "shard",
                "--grammar", self.grammar_spec,
                "--engine", self.engine,
                "--host", self.host,
                "--port", "0",
                "--shard-id", str(index),
                "--workers", str(self.workers),
                "--workers-mode", self.workers_mode,
                "--max-batch-size", str(self.max_batch_size),
                "--max-linger", str(self.max_linger),
                "--log", str(self.log_path(index)),
                "--port-file", str(self.port_path(index)),
            ]
            # Held for the shard's lifetime; closed in shutdown().
            stdio = open(self.run_dir / f"shard-{index}.out", "ab")  # noqa: SIM115
            self._stdio.append(stdio)
            self._procs.append(subprocess.Popen(
                command, env=env, stdout=stdio, stderr=subprocess.STDOUT
            ))
        try:
            self._addresses = self._await_ports(timeout)
        except ClusterError:
            self.shutdown(timeout=10.0)
            raise
        return self

    def _await_ports(self, timeout: float) -> "list[str]":
        deadline = time.monotonic() + timeout
        addresses: "list[str | None]" = [None] * self.shards
        while time.monotonic() < deadline:
            for index, proc in enumerate(self._procs):
                if addresses[index] is not None:
                    continue
                if proc.poll() is not None:
                    raise ClusterError(
                        f"shard {index} exited with code {proc.returncode} before "
                        f"listening (see {self.run_dir / f'shard-{index}.out'})"
                    )
                path = self.port_path(index)
                if path.exists():
                    text = path.read_text().strip()
                    if text:
                        addresses[index] = text
            if all(address is not None for address in addresses):
                return list(addresses)
            time.sleep(_POLL)
        missing = [index for index, address in enumerate(addresses) if address is None]
        raise ClusterError(f"shards {missing} did not start within {timeout}s")

    def client(self, grammar: CDGGrammar, **kwargs) -> ClusterClient:
        """A :class:`ClusterClient` wired to this cluster's shards."""
        if not self._addresses:
            raise ClusterError("cluster is not started")
        return ClusterClient(grammar, self._addresses, engine=self.engine, **kwargs)

    def alive(self) -> "list[bool]":
        """Liveness per shard (subprocess still running)."""
        return [proc.poll() is None for proc in self._procs]

    def shutdown(self, timeout: float = 30.0) -> None:
        """SIGTERM every shard (graceful drain inside), SIGKILL stragglers."""
        for proc in self._procs:
            if proc.poll() is None:
                with contextlib.suppress(ProcessLookupError, OSError):
                    proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10.0)
        for stdio in self._stdio:
            stdio.close()
        self._stdio.clear()
        self._procs.clear()
        self._addresses.clear()

    def __enter__(self) -> "ClusterLauncher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._procs else "down"
        return f"ClusterLauncher({self.shards} shards, {state}, dir={str(self.run_dir)!r})"
