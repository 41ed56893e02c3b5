"""The execute layer: a batched parsing front end.

A :class:`ParserSession` owns everything that amortizes across
sentences under one grammar — the compiled constraint program, the
bounded LRU of network templates (keyed by sentence shape), and the
engine instance — and exposes ``parse`` / ``parse_many``.  This is the
paper's serving shape: the constraint program is fixed, sentences
stream through.

It is the one way to parse.  A one-shot caller builds a session for
the call; a batch caller holds one and gets the amortization::

    result = ParserSession(grammar, engine="serial").parse("the dog runs")
    session = ParserSession(english_grammar(), engine="vector")
    results = session.parse_many(["the dog runs", "dogs bark"])

Sessions are not thread-safe: templates share scratch buffers across
the sentences they bind.  ``parse`` holds a non-blocking re-entrancy
guard and raises :class:`~repro.errors.ConcurrentSessionUse` if a
second thread enters while a parse is running — concurrent callers
should use :class:`repro.serve.ParseService`, which owns one session
per worker thread.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engines.base import ParseResult, ParserEngine, TraceHook
from repro.engines.registry import create_engine
from repro.errors import ConcurrentSessionUse
from repro.kernels.backend import KernelBackend, create_backend
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.network.network import ConstraintNetwork
from repro.pipeline.cache import LRUCache
from repro.pipeline.compiled import CompiledGrammar, compile_grammar
from repro.pipeline.template import NetworkTemplate

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.streaming import StreamingParse

#: Sentinel distinguishing "not passed" from an explicit None.
_UNSET = object()

#: Default bound on cached templates.  Each template holds O(NV^2)
#: arrays plus (once the vector engine touches it) one mask per binary
#: constraint, so the bound is what keeps long-running sessions flat.
DEFAULT_TEMPLATE_CACHE = 16


class ParserSession:
    """Compile-once, bind-cheap, execute-many CDG parsing.

    Args:
        grammar: the grammar all sentences are parsed under.
        engine: an engine name from the registry (``"serial"``,
            ``"vector"``, ``"pram"``, ``"maspar"``, ``"mesh"``, ...)
            or a :class:`~repro.engines.base.ParserEngine` instance.
        backend: a :class:`~repro.kernels.backend.KernelBackend`
            instance (a timing proxy, say) or None for the shared
            packed core.  Every network the session binds runs its
            packed inner loops on it.
        filter_limit: session-default filtering bound (design decision
            5); individual calls may override it.
        template_cache_size: bound on the per-shape template LRU.
    """

    def __init__(
        self,
        grammar: CDGGrammar,
        engine: "str | ParserEngine" = "vector",
        *,
        backend: "KernelBackend | None" = None,
        filter_limit: int | None = None,
        template_cache_size: int = DEFAULT_TEMPLATE_CACHE,
    ):
        self.grammar = grammar
        self.compiled: CompiledGrammar = compile_grammar(grammar)
        self.engine: ParserEngine = create_engine(engine)
        self.kernel_backend: KernelBackend = create_backend(backend)
        self.filter_limit = filter_limit
        self._templates: LRUCache[NetworkTemplate] = LRUCache(template_cache_size)
        self._builds = {"full": 0, "extended": 0}
        self._parse_guard = threading.Lock()

    # -- bind --------------------------------------------------------------

    def tokenize(self, sentence: "Sentence | str | Sequence[str]") -> Sentence:
        if isinstance(sentence, Sentence):
            return sentence
        return self.grammar.tokenize(sentence)

    def template_for(
        self,
        sentence: "Sentence | str | Sequence[str]",
        *,
        prefix: "NetworkTemplate | None" = None,
    ) -> NetworkTemplate:
        """The (cached) template for *sentence*'s shape.

        With *prefix* — the template of the sentence minus its last
        word, as the streaming layer holds it — a cache miss extends
        the prefix template (scattering its frozen packed base matrix
        and cached constraint masks into the enlarged layout) instead
        of rebuilding the O(NV^2) artifacts from scratch; streaming a
        sentence costs one cumulative build, not one per prefix.
        ``template_builds()`` breaks the two build kinds out.
        """
        sent = self.tokenize(sentence)
        key = sent.category_sets
        template = self._templates.get(key)
        if template is None:
            if (
                prefix is not None
                and prefix.grammar is self.grammar
                and prefix.category_sets == key[:-1]
            ):
                template = prefix.extend(key[-1], compiled=self.compiled)
                self._builds["extended"] += 1
            else:
                template = NetworkTemplate.build(self.grammar, sent.category_sets)
                self._builds["full"] += 1
            self._templates.put(key, template)
        template.kernel_backend = self.kernel_backend
        return template

    def network(self, sentence: "Sentence | str | Sequence[str]") -> ConstraintNetwork:
        """A fresh, unpropagated network for *sentence* (cached shape)."""
        sent = self.tokenize(sentence)
        return self.template_for(sent).bind(sent)

    def stream(self, words: Iterable[str] = ()) -> "StreamingParse":
        """Open a word-at-a-time incremental parse.

        Each ``extend(word)`` on the returned handle settles the grown
        prefix and returns its :class:`~repro.engines.base.ParseResult`,
        bit-identical to ``parse()`` of the same words; templates are
        grown by prefix extension rather than rebuilt per length.  Any
        *words* given here are fed immediately.
        """
        from repro.pipeline.streaming import StreamingParse

        stream = StreamingParse(self)
        for word in words:
            stream.extend(word)
        return stream

    # -- execute -----------------------------------------------------------

    def parse(
        self,
        sentence: "Sentence | str | Sequence[str]",
        *,
        filter_limit: "int | None | object" = _UNSET,
        trace: TraceHook | None = None,
    ) -> ParseResult:
        """Parse one sentence through the session's caches.

        Raises:
            ConcurrentSessionUse: if another thread is already inside
                ``parse`` on this session (cheap non-blocking check).
        """
        if not self._parse_guard.acquire(blocking=False):
            raise ConcurrentSessionUse(
                "ParserSession.parse entered while another parse is running; "
                "sessions are single-threaded — use repro.serve.ParseService "
                "to parse from multiple threads"
            )
        try:
            sent = self.tokenize(sentence)
            limit = self.filter_limit if filter_limit is _UNSET else filter_limit
            return self._settle(sent, self.template_for(sent), filter_limit=limit, trace=trace)
        finally:
            self._parse_guard.release()

    def _settle(
        self,
        sent: Sentence,
        template: NetworkTemplate,
        *,
        filter_limit: int | None,
        trace: TraceHook | None = None,
    ) -> ParseResult:
        """Bind *template* for *sent* and run the engine: every parse's body.

        Callers hold the parse guard.  ``parse`` looks the template up;
        a stream passes the prefix-extended template it just grew.
        """
        network = template.bind(sent)
        if trace:
            trace("built", network)
        started = time.perf_counter()
        stats = self.engine.run(
            network, compiled=self.compiled, filter_limit=filter_limit, trace=trace
        )
        stats.wall_seconds = time.perf_counter() - started
        stats.engine = self.engine.name
        # Memory accounting: engines that work on a boolean
        # representation record their own footprint before their
        # finally-repack; default to the settled (packed) state.
        stats.extra.setdefault("network_bytes", network.state_nbytes())
        stats.extra["template_cache_bytes"] = self.cached_bytes()
        stats.extra.setdefault("kernel_backend", self.kernel_backend.name)
        return ParseResult(
            network=network,
            locally_consistent=network.all_domains_nonempty(),
            ambiguous=network.is_ambiguous(),
            stats=stats,
        )

    def parse_many(
        self,
        sentences: Iterable["Sentence | str | Sequence[str]"],
        *,
        filter_limit: "int | None | object" = _UNSET,
        trace: TraceHook | None = None,
    ) -> list[ParseResult]:
        """Parse a batch; results are index-aligned with the input.

        Result-equivalent to ``[session.parse(s) for s in sentences]``
        — the equality is a test invariant — but the batch is executed
        grouped by sentence shape (groups in order of each shape's
        first arrival, results restored to arrival order), so
        template-cache churn is bounded by the number of *distinct*
        shapes in the batch rather than by arrival order: a
        shape-interleaved stream through a small LRU costs one miss per
        shape instead of one per sentence.
        """
        sents = [self.tokenize(sentence) for sentence in sentences]
        groups: dict[tuple, list[int]] = {}
        for index, sent in enumerate(sents):
            groups.setdefault(sent.category_sets, []).append(index)
        results: list[ParseResult | None] = [None] * len(sents)
        for indices in groups.values():
            for index in indices:
                results[index] = self.parse(
                    sents[index], filter_limit=filter_limit, trace=trace
                )
        return results

    # -- introspection -----------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Template-cache counters (hits/misses/evictions/size)."""
        return self._templates.info()

    def template_builds(self) -> dict[str, int]:
        """Template constructions by kind: ``full`` vs prefix-``extended``."""
        return dict(self._builds)

    def cached_bytes(self) -> int:
        """Approximate bytes held by the cached templates."""
        return sum(t.nbytes() for t in self._templates._data.values())

    def clear_caches(self) -> None:
        self._templates.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"ParserSession({self.grammar.name!r}, engine={self.engine.name!r}, "
            f"templates={info['size']}/{info['maxsize']})"
        )
