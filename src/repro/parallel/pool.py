"""The process fan-out: child runtime, wire format, pool lifecycle.

Each worker process holds a tiny process-local runtime (`_CHILD`):
the grammar (shipped once through the pool initializer, not per
task), its compiled constraint program, one engine instance, and a
bounded LRU of *attached* templates whose eviction hook closes the
worker's shared-memory mapping.  Children start empty by contract —
:class:`~repro.pipeline.cache.LRUCache` refuses to cross a process
boundary populated — and attach blocks lazily on first use of a shape.

Tasks and results are deliberately small on the wire: a task is a
:class:`~repro.parallel.shared.SharedTemplateHandle` plus plain word
lists; a result is the per-sentence packed state (``alive_bits`` /
``matrix_bits``, kilobytes) plus verdicts and stats.  The megabyte
artifacts — base matrices and constraint masks — never cross the pipe;
they live in the shared block both sides map.

The pool spawns all workers eagerly at construction (``multiprocessing
.pool.Pool`` semantics) so a fork happens while the parent is still
single-threaded; creating a fork-context pool from a thread-spawning
service *after* its workers started would fork lock states mid-flight.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker

import numpy as np

from repro.engines.base import EngineStats, ParseResult, ParserEngine
from repro.engines.registry import create_engine
from repro.errors import ReproError
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.parallel.shared import SharedTemplateHandle, attach_template
from repro.pipeline.cache import LRUCache
from repro.pipeline.compiled import compile_grammar
from repro.pipeline.template import NetworkTemplate

#: Bound on per-child attached templates; evicting one closes that
#: child's mapping of the block (the block itself stays owned by the
#: parent store).
DEFAULT_CHILD_CACHE = 8


def default_start_method() -> str:
    """``fork`` where available (cheap, COW-shares the grammar), else
    ``spawn`` — both attach the same shared blocks either way."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class WireResult:
    """One sentence's parse outcome, sized for the result pipe."""

    alive_bits: np.ndarray
    matrix_bits: np.ndarray
    locally_consistent: bool
    ambiguous: bool
    stats: EngineStats


#: Per-process runtime, populated by :func:`_init_child` in the pool
#: initializer.  Module-global because pool tasks can only reach
#: process state through module scope.
_CHILD: dict | None = None


def _close_attachment(entry: "tuple[NetworkTemplate, object]") -> None:
    entry[1].close()


def _init_child(grammar: CDGGrammar, engine: str, cache_size: int) -> None:
    global _CHILD
    _CHILD = {
        "grammar": grammar,
        "compiled": compile_grammar(grammar),
        "engine": create_engine(engine),
        "templates": LRUCache(cache_size, on_evict=_close_attachment),
    }


def _child_template(handle: SharedTemplateHandle) -> NetworkTemplate:
    state = _CHILD
    cache: LRUCache = state["templates"]
    entry = cache.get(handle.shm_name)
    if entry is None:
        entry = attach_template(handle, state["grammar"], state["compiled"])
        cache.put(handle.shm_name, entry)
    return entry[0]


def _parse_chunk(
    handle: SharedTemplateHandle,
    word_lists: list[list[str]],
    filter_limit: int | None,
) -> list[WireResult]:
    """Pool task: parse one single-shape chunk against a shared template."""
    state = _CHILD
    if state is None:
        raise ReproError("worker process was not initialized (_init_child did not run)")
    template = _child_template(handle)
    engine: ParserEngine = state["engine"]
    results: list[WireResult] = []
    for words in word_lists:
        sent = state["grammar"].tokenize(words)
        network = template.bind(sent)
        started = time.perf_counter()
        stats = engine.run(network, compiled=state["compiled"], filter_limit=filter_limit)
        stats.wall_seconds = time.perf_counter() - started
        stats.engine = engine.name
        stats.extra.setdefault("network_bytes", network.state_nbytes())
        stats.extra["worker_pid"] = os.getpid()
        stats.extra.setdefault("kernel_backend", network.kernels().name)
        results.append(
            WireResult(
                alive_bits=network.alive_bits,
                matrix_bits=network.matrix_bits,
                locally_consistent=network.all_domains_nonempty(),
                ambiguous=network.is_ambiguous(),
                stats=stats,
            )
        )
    return results


def materialize_result(
    template: NetworkTemplate, sentence: Sentence, wire: WireResult
) -> ParseResult:
    """Rebind a wire result into a full :class:`ParseResult` (parent side)."""
    network = template.bind(sentence)
    network.alive_bits = np.ascontiguousarray(wire.alive_bits)
    network.matrix_bits = np.ascontiguousarray(wire.matrix_bits)
    network._alive_cache = None
    network._matrix_cache = None
    return ParseResult(
        network=network,
        locally_consistent=wire.locally_consistent,
        ambiguous=wire.ambiguous,
        stats=wire.stats,
    )


class ProcessPool:
    """An eagerly-spawned pool of parse workers.

    Thin lifecycle wrapper over ``multiprocessing.pool.Pool``: ships
    the grammar once per worker through the initializer, exposes chunk
    submission, and guarantees *pool first, store second* shutdown
    ordering by never owning shared blocks itself.
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        engine: str = "vector",
        *,
        workers: int = 2,
        start_method: str | None = None,
        child_cache_size: int = DEFAULT_CHILD_CACHE,
    ):
        if isinstance(engine, ParserEngine):
            raise ReproError(
                "process workers need an engine *name* from the registry "
                "(engine instances cannot be shipped to child processes)"
            )
        if workers < 1:
            raise ReproError(f"process pool needs workers >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method or default_start_method()
        # Make sure the parent's resource tracker exists *before* the
        # workers do: fork children must inherit it, or each would spin
        # up a private tracker on first shared-memory attach and warn
        # about "leaked" segments it does not own at exit.
        resource_tracker.ensure_running()
        context = multiprocessing.get_context(self.start_method)
        self._pool = context.Pool(
            processes=workers,
            initializer=_init_child,
            initargs=(grammar, engine, child_cache_size),
        )
        self._closed = False

    def submit_chunk(self, handle, word_lists, filter_limit):
        """Dispatch one single-shape chunk; returns an ``AsyncResult``."""
        return self._pool.apply_async(_parse_chunk, (handle, word_lists, filter_limit))

    def run_chunk(self, handle, word_lists, filter_limit, timeout: float | None = None):
        """Blocking convenience over :meth:`submit_chunk`."""
        return self.submit_chunk(handle, word_lists, filter_limit).get(timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (idempotent); their mappings die with them."""
        if self._closed:
            return
        self._closed = True
        if wait:
            self._pool.close()
        else:
            self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
