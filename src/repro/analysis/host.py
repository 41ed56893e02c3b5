"""Host metadata for honest benchmark records.

Every benchmark writer embeds :func:`host_metadata` in its JSON record,
and every scaling claim is gated on it: a "2x with 2 shards" line from
a single-core container is dispatch overhead arithmetic, not a scaling
measurement.  :func:`scaling_claim_allowed` centralizes that gate so
every record applies the same rule — *annotate* what was measured on a
small host, *claim* only what the cores could actually exhibit.
"""

from __future__ import annotations

import multiprocessing
import os
import platform


def host_metadata() -> dict:
    """The facts a benchmark record needs to be interpreted honestly."""
    try:
        start_method = multiprocessing.get_start_method(allow_none=True) or "default"
    except (ValueError, RuntimeError):  # pragma: no cover - exotic hosts
        start_method = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "start_method": start_method,
    }


def scaling_claim_allowed(parallelism: int) -> bool:
    """May a record claim "Nx scaling" at this *parallelism* on this host?

    True only when the host has at least as many cores as concurrent
    workers — fewer cores means the workers time-share and the measured
    ratio reflects scheduling, not parallel speedup.
    """
    return parallelism <= (os.cpu_count() or 1)
