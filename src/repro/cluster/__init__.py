"""repro.cluster — the networked sharded parse cluster.

The MasPar paper's architecture is a front end dispatching to a
parallel back end; this package is that shape over real sockets.  A
:class:`ClusterClient` consistent-hash routes each sentence's *shape*
to one of N :class:`ParseServer` shards (each fronting its own
:class:`~repro.serve.ParseService`, so the whole PR-5 process data
plane is per-shard), speaks a length-prefixed binary wire protocol
with per-request deadline budgets, and rebinds the packed verdict bits
it gets back into full results that are bit-identical to an in-process
parse.  A :class:`ClusterLauncher` runs shards as subprocesses with a
start/drain/shutdown lifecycle, and :class:`ClusterLogParser` merges
the per-shard logs into one throughput and latency summary.
"""

from repro.cluster.errors import (
    ClusterError,
    ConnectionClosed,
    FrameTooLarge,
    ShardUnavailable,
    WireError,
)
from repro.cluster.launcher import ClusterLauncher
from repro.cluster.logs import ClusterLogParser
from repro.cluster.ring import HashRing, hash_key
from repro.cluster.router import ClusterClient, ClusterStream, ShardRouter
from repro.cluster.server import ParseServer

__all__ = [
    "ClusterError",
    "WireError",
    "FrameTooLarge",
    "ConnectionClosed",
    "ShardUnavailable",
    "HashRing",
    "hash_key",
    "ParseServer",
    "ShardRouter",
    "ClusterClient",
    "ClusterStream",
    "ClusterLauncher",
    "ClusterLogParser",
]
