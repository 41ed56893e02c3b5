"""`ParallelSession`: `parse_many` fanned out over worker processes.

The multi-core counterpart of
:class:`~repro.pipeline.session.ParserSession`, with the same
``parse`` / ``parse_many`` surface and bit-identical results (the
equivalence sweep in ``tests/test_parallel.py`` pins this).  The fan-out
mirrors the paper's virtualization of role-value blocks onto PE
clusters: sentences are grouped by shape, each shape's template is
exported to shared memory once, and single-shape chunks are dispatched
so every worker binds the same shared template instead of rebuilding
it.

A session owns its pool and its :class:`SharedTemplateStore`; use it as
a context manager (or call :meth:`close`) so the shutdown runs in the
required order — pool first, store second — and leaves no ``/dev/shm``
segment behind.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.engines.base import ParseResult
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.parallel.pool import DEFAULT_CHILD_CACHE, ProcessPool, materialize_result
from repro.parallel.shared import SharedTemplateStore
from repro.pipeline.session import DEFAULT_TEMPLATE_CACHE, _UNSET, ParserSession


class ParallelSession:
    """Compile-once, bind-cheap, execute-on-every-core CDG parsing.

    Args:
        grammar: the grammar all sentences are parsed under.
        engine: an engine *name* from the registry (instances cannot
            cross the process boundary).
        workers: worker process count.  Every worker runs the packed
            kernel core; its results carry
            ``stats.extra["kernel_backend"] == "packed"``.
        start_method: ``"fork"`` / ``"spawn"`` / ``"forkserver"``;
            defaults to fork where the platform has it.
        filter_limit: session-default filtering bound, shipped with
            every chunk.
        template_cache_size: bound on the parent-side template LRU
            (used for export and result rebinding).
        child_cache_size: bound on each worker's attached-template LRU.
        chunk_size: sentences per dispatched task; default splits each
            shape group evenly across the workers.
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        engine: str = "vector",
        *,
        workers: int = 2,
        start_method: str | None = None,
        filter_limit: int | None = None,
        template_cache_size: int = DEFAULT_TEMPLATE_CACHE,
        child_cache_size: int = DEFAULT_CHILD_CACHE,
        chunk_size: int | None = None,
    ):
        self.grammar = grammar
        self.filter_limit = filter_limit
        self.chunk_size = chunk_size
        # Parent-side session: templates for export + result rebinding.
        # Its engine never runs; keeping the name validates it early.
        self._session = ParserSession(
            grammar,
            engine=engine,
            filter_limit=filter_limit,
            template_cache_size=template_cache_size,
        )
        self._store = SharedTemplateStore()
        # The pool forks/spawns here, before any caller threads exist.
        self._pool = ProcessPool(
            grammar,
            engine,
            workers=workers,
            start_method=start_method,
            child_cache_size=child_cache_size,
        )
        self._closed = False

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def start_method(self) -> str:
        return self._pool.start_method

    def _chunks(self, indices: list[int]) -> list[list[int]]:
        size = self.chunk_size
        if size is None:
            size = -(-len(indices) // self._pool.workers)
        size = max(1, size)
        return [indices[i : i + size] for i in range(0, len(indices), size)]

    def parse_many(
        self,
        sentences: Iterable["Sentence | str | Sequence[str]"],
        *,
        filter_limit: "int | None | object" = _UNSET,
    ) -> list[ParseResult]:
        """Parse a batch across the pool; results in arrival order.

        Bit-identical to ``ParserSession.parse_many`` on the same
        inputs (the networks, verdicts and deterministic stats agree);
        only wall-clock attribution differs.
        """
        if self._closed:
            raise RuntimeError("ParallelSession is closed")
        limit = self.filter_limit if filter_limit is _UNSET else filter_limit
        sents = [self._session.tokenize(sentence) for sentence in sentences]
        groups: dict[tuple, list[int]] = {}
        for index, sent in enumerate(sents):
            groups.setdefault(sent.category_sets, []).append(index)
        pending = []
        for indices in groups.values():
            template = self._session.template_for(sents[indices[0]])
            handle = self._store.export(template, self._session.compiled)
            for chunk in self._chunks(indices):
                words = [sents[i].words for i in chunk]
                pending.append(
                    (template, chunk, self._pool.submit_chunk(handle, words, limit))
                )
        results: list[ParseResult | None] = [None] * len(sents)
        for template, chunk, async_result in pending:
            wires = async_result.get()
            for index, wire in zip(chunk, wires, strict=True):
                results[index] = materialize_result(template, sents[index], wire)
        return results

    def parse(
        self,
        sentence: "Sentence | str | Sequence[str]",
        *,
        filter_limit: "int | None | object" = _UNSET,
    ) -> ParseResult:
        """One sentence through the pool (convenience over parse_many)."""
        return self.parse_many([sentence], filter_limit=filter_limit)[0]

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Parent-side template-cache counters."""
        return self._session.cache_info()

    def shared_bytes(self) -> int:
        """Payload bytes currently exported to shared memory."""
        return self._store.nbytes()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down: pool first (workers drop their mappings), then
        unlink the owned shared blocks.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown()
        self._store.close()

    def __enter__(self) -> "ParallelSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelSession({self.grammar.name!r}, workers={self._pool.workers}, "
            f"start_method={self._pool.start_method!r}, shapes={len(self._store)})"
        )
