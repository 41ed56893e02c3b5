"""The compile -> bind -> execute pipeline.

Three layers, mirroring what is fixed at each timescale:

* **compile** (per grammar): :func:`compile_grammar` ->
  :class:`CompiledGrammar` — constraints partitioned by arity with both
  evaluators materialized, symbol tables frozen.
* **bind** (per sentence shape): :class:`NetworkTemplate` — field
  arrays, base masks and category tables for one
  ``(grammar, n, category-signature)``, cached behind a bounded LRU;
  ``template.bind(sentence)`` stamps out a network cheaply.
* **execute** (per sentence): :class:`ParserSession` — owns the caches
  and an engine, exposes ``parse`` / ``parse_many``; for a sentence
  arriving a word at a time, ``session.stream()`` opens a
  :class:`StreamingParse` whose per-token ``extend`` settles each
  grown prefix as ``parse`` would.

See ``docs/architecture.md`` ("Pipeline: compile -> bind -> execute"
and "Incremental streaming core").
"""

from repro.pipeline.cache import LRUCache
from repro.pipeline.compiled import CompiledConstraint, CompiledGrammar, compile_grammar
from repro.pipeline.session import ParserSession
from repro.pipeline.streaming import StreamingParse
from repro.pipeline.template import NetworkTemplate, VectorMasks

__all__ = [
    "CompiledConstraint",
    "CompiledGrammar",
    "compile_grammar",
    "LRUCache",
    "NetworkTemplate",
    "VectorMasks",
    "ParserSession",
    "StreamingParse",
]
