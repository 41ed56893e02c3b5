"""Word-at-a-time incremental parsing: the streaming execute layer.

The CN representation is monotone — propagation only ever eliminates
role values — but the *settled* state of a prefix does not carry over
to the longer sentence: consistency kills are support-based, and the
new word's role values can restore support to a value an earlier
fixpoint eliminated.  What would carry over is the pre-fixpoint state
(unary kills plus the fused binary mask), since elementwise constraint
evaluation over the old role values does not depend on sentence
length.  It is not worth carrying either: the masks are unary first
(:meth:`NetworkTemplate.vector_masks` evaluates the binary constraints
only among the unary survivors), so evaluating them fresh for the
longer shape costs less than scattering the prefix's masks into the
new layout.  No masks cross a word.

A stream step is therefore the session's own parse body on the
template of the grown prefix: ``ParserSession.template_for(prefix=)``
builds it with ``NetworkTemplate.extend`` (a plain construction,
counted as ``extended``) on a cache miss, then a fresh bind and the
session's engine.  Determinism of the whole pipeline makes the settled
network, the verdict, and every elimination counter bit-identical to a
fresh full parse of the prefix.  Tests sweep that invariant per word.

``parse``, ``parse_many``, streams, the service, pool workers and
cluster shards all run that one body, whatever the engine.  Steps that
ran the vector engine's fused schedule (its result carries
``stats.extra["fused_binary_kernel"]``) are marked
``stats.extra["streamed"]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engines.base import ParseResult
from repro.errors import ConcurrentSessionUse, StreamError
from repro.grammar.grammar import Sentence

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.session import ParserSession
    from repro.pipeline.template import NetworkTemplate


class StreamingParse:
    """A handle over one growing sentence: ``extend(word)`` per token.

    Open one with :meth:`ParserSession.stream`.  Each ``extend`` returns
    the :class:`~repro.engines.base.ParseResult` of the prefix parsed so
    far (also available as :meth:`result`), bit-identical to
    ``session.parse`` of the same words.  Handles are single-threaded,
    like the sessions they ride on.  An unknown word is rejected at the
    door (:class:`~repro.errors.LexiconError`) and leaves the stream
    usable; an error *during* the parse step marks the stream
    ``broken`` — retained incremental state cannot be trusted past a
    partial application — and every later ``extend`` raises
    :class:`~repro.errors.StreamError`.
    """

    def __init__(self, session: "ParserSession"):
        self._session = session
        self._words: list[str] = []
        self._template: "NetworkTemplate | None" = None
        self._result: ParseResult | None = None
        self._broken = False

    # -- introspection -----------------------------------------------------

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(self._words)

    @property
    def n_words(self) -> int:
        return len(self._words)

    @property
    def broken(self) -> bool:
        return self._broken

    def result(self) -> ParseResult:
        """The settled result of the current prefix."""
        if self._result is None:
            raise StreamError("stream holds no words yet; call extend() first")
        return self._result

    # -- the streaming step ------------------------------------------------

    def extend(self, word: str) -> ParseResult:
        """Append *word* and return the settled result of the new prefix."""
        return self._advance(word)

    def _advance(self, word: str) -> ParseResult:
        if self._broken:
            raise StreamError(
                "stream is broken by an earlier error; open a new stream"
            )
        session = self._session
        # Tokenization failures (an unknown word) reject at the door and
        # leave the stream usable: nothing was applied, so the retained
        # state is still the truth of the accepted prefix.  Failures
        # past this point break the stream instead.
        sent = session.tokenize([*self._words, word])
        try:
            template = session.template_for(sent, prefix=self._template)
            result = self._settle(sent, template)
        except BaseException:
            self._broken = True
            raise
        self._words.append(word)
        self._template = template
        self._result = result
        return result

    def _settle(self, sent: Sentence, template: "NetworkTemplate") -> ParseResult:
        session = self._session
        if not session._parse_guard.acquire(blocking=False):
            raise ConcurrentSessionUse(
                "StreamingParse.extend entered while another parse is running; "
                "sessions are single-threaded — use repro.serve.ParseService "
                "streams to feed tokens from multiple threads"
            )
        try:
            # The session's own parse body on the template this step just
            # grew: no second lookup, and the session's engine and filter
            # limit, as in every other entry point.
            result = session._settle(sent, template, filter_limit=session.filter_limit)
        finally:
            session._parse_guard.release()
        if result.stats.extra.get("fused_binary_kernel"):
            result.stats.extra["streamed"] = True
        return result
