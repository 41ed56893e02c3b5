"""Shape-batched request queueing: the service's dynamic batcher.

The scheduling idea is the paper's: a fixed constraint program is
fastest when work streaming through it is *shape-coherent*.  A
:class:`~repro.pipeline.template.NetworkTemplate` is keyed by a
sentence's category signature, so a batch of same-shape sentences binds
against one cached template — while an interleaved arrival stream with
more live shapes than the bounded template LRU thrashes it (every parse
rebuilds a template).  The :class:`ShapeBatcher` therefore groups
pending requests by that same shape key and releases *single-shape*
batches, flushing a group when it reaches ``max_batch_size`` or when
its oldest request has lingered ``max_linger`` seconds (the classic
dynamic-batching size-or-time rule).

Determinism contract: the batcher owns **no clock and no lock**.  Every
method takes the current time explicitly, so tests drive it with a fake
clock and no sleeps; :class:`~repro.serve.service.ParseService` calls
it only under its own mutex and passes ``time.monotonic()`` values.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

from repro.grammar.grammar import Sentence


@dataclass(slots=True)
class ParseRequest:
    """One queued sentence: payload, shape key, timing, and its future."""

    sentence: Sentence
    key: Hashable  # the sentence's category signature (template cache key)
    enqueued: float  # service-clock time of admission
    deadline: float | None = None  # absolute; None = no deadline
    est_bytes: int = 0  # per-shape network-size estimate (0 = shape not yet seen)
    future: Future = field(default_factory=Future)


class ShapeBatcher:
    """Groups pending requests by sentence shape; flushes by size or age.

    Not thread-safe and clock-free by design (see module docstring).

    Args:
        max_batch_size: flush a group as soon as it holds this many
            requests; also the cap on any returned batch.
        max_linger: flush a group once its oldest request has waited
            this many seconds, even if the batch is small.  ``0.0``
            means every request is dispatchable immediately.
    """

    def __init__(self, max_batch_size: int = 16, max_linger: float = 0.002):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_linger < 0:
            raise ValueError(f"max_linger must be >= 0, got {max_linger}")
        self.max_batch_size = max_batch_size
        self.max_linger = max_linger
        self._groups: OrderedDict[Hashable, deque[ParseRequest]] = OrderedDict()
        self._total = 0

    def __len__(self) -> int:
        return self._total

    @property
    def n_shapes(self) -> int:
        """Distinct shapes currently pending."""
        return len(self._groups)

    def add(self, request: ParseRequest) -> None:
        """Queue *request* under its shape key."""
        self._groups.setdefault(request.key, deque()).append(request)
        self._total += 1

    # -- removal -----------------------------------------------------------

    def expire(self, now: float) -> list[ParseRequest]:
        """Remove and return every dead request (deadline passed or
        future already cancelled).  Called before :meth:`pop_ready`, so
        an expired request is never part of a dispatched batch."""
        removed: list[ParseRequest] = []
        for key in list(self._groups):
            queue = self._groups[key]
            alive: deque[ParseRequest] = deque()
            for request in queue:
                dead = request.future.cancelled() or (
                    request.deadline is not None and now >= request.deadline
                )
                (removed if dead else alive).append(request)
            if len(alive) != len(queue):
                if alive:
                    self._groups[key] = alive
                else:
                    del self._groups[key]
        self._total -= len(removed)
        return removed

    def pop_ready(self, now: float, *, force: bool = False) -> list[ParseRequest] | None:
        """Remove and return one ready single-shape batch, or ``None``.

        A group is ready when it holds ``max_batch_size`` requests or
        its oldest request has lingered ``max_linger`` seconds (any
        non-empty group when *force*, used while draining).  Among
        ready groups the one with the oldest head request wins, so no
        shape is starved.  Batches never exceed ``max_batch_size``;
        the remainder of a larger group stays queued.
        """
        best_key = None
        best_age = None
        for key, queue in self._groups.items():
            ready = (
                force
                or len(queue) >= self.max_batch_size
                or now - queue[0].enqueued >= self.max_linger
            )
            if ready and (best_age is None or queue[0].enqueued < best_age):
                best_key = key
                best_age = queue[0].enqueued
        if best_key is None:
            return None
        queue = self._groups[best_key]
        batch = [queue.popleft() for _ in range(min(self.max_batch_size, len(queue)))]
        if not queue:
            del self._groups[best_key]
        self._total -= len(batch)
        return batch

    def clear(self) -> list[ParseRequest]:
        """Remove and return everything (abrupt shutdown)."""
        leftovers = [r for queue in self._groups.values() for r in queue]
        self._groups.clear()
        self._total = 0
        return leftovers

    # -- scheduling --------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        """Seconds until the next linger flush or deadline expiry.

        ``None`` when nothing is pending (callers wait for an ``add``
        notification instead); ``0.0`` when an event is already due.
        """
        event: float | None = None
        for queue in self._groups.values():
            linger_at = queue[0].enqueued + self.max_linger
            if event is None or linger_at < event:
                event = linger_at
            for request in queue:
                if request.deadline is not None and request.deadline < event:
                    event = request.deadline
        if event is None:
            return None
        return max(0.0, event - now)
