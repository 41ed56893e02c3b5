"""Shard logs in, one merged summary out.

Follows the BFT-MVBA ``LogParser`` discipline: a cluster's own timing
is derived from what the *nodes* logged, not from what a load
generator believes it did.  Each shard writes timestamped structured
lines (:class:`~repro.cluster.server.ShardLog`); this module parses
every shard's log in a worker pool, pairs each request's ``recv`` with
its ``done``/``reject`` by ``(shard, conn, id)``, merges the per-node
timelines keeping the *earliest* timestamp per key (a retried or
duplicated line never shrinks a latency), and summarizes throughput
and latency percentiles over the merged window.

The end-to-end benchmark's ``cluster-open`` workload reads its shard
residence percentiles through :class:`ClusterLogParser`.  Latency seen
by a client includes the wire and the router; shard-log latency starts
at frame receipt, so the gap between the two *is* the wire cost.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from repro.cluster.errors import ClusterError

_READY = re.compile(r"^\S+ shard=(?P<shard>\d+) event=ready\b")
_RECV = re.compile(
    r"^(?P<ts>\S+) shard=(?P<shard>\d+) event=recv conn=(?P<conn>\d+) "
    r"id=(?P<id>\d+) kind=(?P<kind>\S+)"
)
_DONE = re.compile(
    r"^(?P<ts>\S+) shard=(?P<shard>\d+) event=done conn=(?P<conn>\d+) id=(?P<id>\d+)"
)
_REJECT = re.compile(
    r"^(?P<ts>\S+) shard=(?P<shard>\d+) event=reject conn=(?P<conn>\d+)"
    r"(?: id=(?P<id>\d+))? kind=(?P<kind>\S+)"
)


def _percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _ts(raw: str) -> float:
    """ISO-8601 (UTC) to an epoch float; 'Z' suffixes are tolerated."""
    return datetime.fromisoformat(raw.replace("Z", "+00:00")).timestamp()


def parse_log_text(text: str) -> dict:
    """Extract one shard log's event maps (pool task: text in, dicts out).

    Returns ``recv`` / ``done`` maps keyed by ``(shard, conn, id)`` —
    earliest timestamp wins on duplicates — plus reject tallies by kind
    and the shard ids seen.  A shard counts from its ``ready`` line, so
    one the hash ring sent no request still appears.
    """
    recv: dict = {}
    done: dict = {}
    rejects: "dict[str, int]" = {}
    shards: set = set()
    for line in text.splitlines():
        match = _RECV.match(line)
        if match:
            key = (int(match["shard"]), int(match["conn"]), int(match["id"]))
            stamp = _ts(match["ts"])
            if key not in recv or stamp < recv[key]:
                recv[key] = stamp
            shards.add(int(match["shard"]))
            continue
        match = _DONE.match(line)
        if match:
            key = (int(match["shard"]), int(match["conn"]), int(match["id"]))
            stamp = _ts(match["ts"])
            if key not in done or stamp < done[key]:
                done[key] = stamp
            shards.add(int(match["shard"]))
            continue
        match = _REJECT.match(line)
        if match:
            kind = match["kind"]
            rejects[kind] = rejects.get(kind, 0) + 1
            shards.add(int(match["shard"]))
            continue
        match = _READY.match(line)
        if match:
            shards.add(int(match["shard"]))
    return {"recv": recv, "done": done, "rejects": rejects, "shards": sorted(shards)}


@dataclass
class MergedTimeline:
    """All shards' logs merged: earliest timestamp per key, per event."""

    recv: dict = field(default_factory=dict)
    done: dict = field(default_factory=dict)
    rejects: "dict[str, int]" = field(default_factory=dict)
    shards: "list[int]" = field(default_factory=list)

    def merge(self, parsed: dict) -> None:
        for name in ("recv", "done"):
            ours = getattr(self, name)
            for key, stamp in parsed[name].items():
                if key not in ours or stamp < ours[key]:
                    ours[key] = stamp
        for kind, count in parsed["rejects"].items():
            self.rejects[kind] = self.rejects.get(kind, 0) + count
        self.shards = sorted(set(self.shards) | set(parsed["shards"]))

    def latencies_ms(self) -> "list[float]":
        return [
            (self.done[key] - self.recv[key]) * 1000.0
            for key in self.done
            if key in self.recv
        ]

    def summary(self) -> dict:
        """Throughput and latency percentiles over the merged window."""
        paired = self.latencies_ms()
        completed = len(paired)
        window = 0.0
        if self.recv and self.done:
            window = max(self.done.values()) - min(self.recv.values())
        ordered = sorted(paired)
        return {
            "shards": self.shards,
            "received": len(self.recv),
            "completed": completed,
            "rejected": sum(self.rejects.values()),
            "rejects_by_kind": dict(self.rejects),
            "window_seconds": round(window, 6),
            "throughput_rps": round(completed / window, 3) if window > 0 else 0.0,
            "latency": {
                "p50_ms": round(_percentile(ordered, 50), 3),
                "p95_ms": round(_percentile(ordered, 95), 3),
                "p99_ms": round(_percentile(ordered, 99), 3),
                "max_ms": round(ordered[-1], 3) if ordered else 0.0,
            },
        }


class ClusterLogParser:
    """Parse a directory of per-shard logs into one merged summary.

    Per-node parsing fans out over a process pool when the host has the
    cores for it (and more than one log to parse); on small hosts it
    degrades to a plain map — the result is identical, only the wall
    time differs, and the summary never claims otherwise.
    """

    def __init__(self, parsed_logs: "list[dict]"):
        self.timeline = MergedTimeline()
        for parsed in parsed_logs:
            self.timeline.merge(parsed)

    @classmethod
    def from_texts(cls, texts: "list[str]", *, pool: "bool | None" = None):
        use_pool = pool
        if use_pool is None:
            use_pool = len(texts) > 1 and (os.cpu_count() or 1) > 1
        if use_pool:
            with multiprocessing.Pool(min(len(texts), os.cpu_count() or 1)) as workers:
                parsed = workers.map(parse_log_text, texts)
        else:
            parsed = [parse_log_text(text) for text in texts]
        return cls(parsed)

    @classmethod
    def from_directory(cls, path: "Path | str", *, pool: "bool | None" = None):
        directory = Path(path)
        files = sorted(directory.glob("shard-*.log"))
        if not files:
            raise ClusterError(f"no shard-*.log files under {directory}")
        return cls.from_texts([file.read_text() for file in files], pool=pool)

    def summary(self) -> dict:
        return self.timeline.summary()
