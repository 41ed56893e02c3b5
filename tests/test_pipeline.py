"""The compile/bind/execute pipeline: sessions, templates, caches.

The load-bearing invariants:

* a network bound from a *cached* template is bit-identical to one
  built cold by ``ConstraintNetwork(grammar, sentence)``;
* ``parse_many`` equals a loop of one-shot parses, each through a
  fresh session (networks and every deterministic stat);
* the template LRU stays bounded and evicts oldest-first;
* back-to-back parses through one session share no mutable state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConstraintNetwork,
    ParserSession,
    VectorEngine,
    available_engines,
    compile_grammar,
    create_engine,
    register_engine,
)
from repro.engines.base import EngineStats, ParserEngine
from repro.errors import ReproError
from repro.grammar.builtin import english_grammar, program_grammar
from repro.pipeline.cache import LRUCache
from repro.workloads import sentence_of_length

DETERMINISTIC_STATS = (
    "engine",
    "unary_checks",
    "pair_checks",
    "role_values_killed",
    "matrix_entries_zeroed",
    "consistency_passes",
    "filtering_iterations",
    "parallel_steps",
    "processors",
)


def assert_same_network(a: ConstraintNetwork, b: ConstraintNetwork) -> None:
    assert np.array_equal(a.alive, b.alive)
    assert np.array_equal(a.matrix, b.matrix)
    for field in ("pos", "role_kind", "cat", "lab", "mod", "role_index"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.role_values == b.role_values
    assert a.role_slices == b.role_slices


class TestTemplateCache:
    def test_cached_template_binds_bit_identical_networks(self):
        grammar = english_grammar()
        session = ParserSession(grammar, engine="vector")
        words = ["the", "dog", "sees", "the", "cat"]

        session.parse(words)  # populate the template cache
        assert session.cache_info()["misses"] == 1

        warm = session.network(words)  # bound from the cached template
        assert session.cache_info()["hits"] >= 1
        cold = ConstraintNetwork(grammar, grammar.tokenize(words))
        assert_same_network(warm, cold)

    def test_shapes_share_templates_but_not_sentences(self):
        grammar = english_grammar()
        session = ParserSession(grammar, engine="vector")
        # Same length, same category signature, different words.
        a = session.network(["the", "dog", "runs"])
        b = session.network(["the", "cat", "sleeps"])
        assert a.template is b.template
        assert a.sentence.words != b.sentence.words
        # Per-sentence state is freshly allocated, never aliased.
        assert a.alive is not b.alive
        assert a.matrix is not b.matrix

    def test_hit_counting(self):
        session = ParserSession(english_grammar(), engine="vector")
        for _ in range(3):
            session.parse(["the", "dog", "runs"])
        info = session.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_template_arrays_are_frozen(self):
        session = ParserSession(english_grammar(), engine="vector")
        template = session.template_for(["the", "dog", "runs"])
        with pytest.raises(ValueError):
            template.base_matrix[0, 0] = False
        with pytest.raises(ValueError):
            template.pos[0] = 99


class TestLRUBounds:
    def test_eviction_bounds_cache_size(self):
        session = ParserSession(english_grammar(), engine="vector", template_cache_size=2)
        for n in (3, 5, 7, 8):  # four distinct shapes through a 2-slot cache
            session.parse(sentence_of_length(n))
        info = session.cache_info()
        assert info["size"] <= 2
        assert info["evictions"] == 2
        assert session.cached_bytes() > 0

    def test_lru_cache_evicts_oldest_first(self):
        cache: LRUCache[int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        info = cache.info()
        assert info == {"size": 2, "maxsize": 2, "hits": 1, "misses": 0, "evictions": 1}

    def test_clear_caches(self):
        session = ParserSession(english_grammar(), engine="vector")
        session.parse(["the", "dog", "runs"])
        assert session.cache_info()["size"] == 1
        session.clear_caches()
        assert session.cache_info()["size"] == 0

    def test_eviction_order_is_lru_not_fifo(self):
        cache: LRUCache[int] = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, 1)
        cache.get("a")  # access order is now b < c < a
        cache.put("b", 2)  # refresh b: c is now least recent
        cache.put("d", 4)
        assert "c" not in cache
        assert all(key in cache for key in ("a", "b", "d"))

    def test_maxsize_one_keeps_only_newest(self):
        cache: LRUCache[int] = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" not in cache and cache.get("b") == 2
        assert cache.info()["evictions"] == 1

    def test_maxsize_zero_disables_caching(self):
        cache: LRUCache[int] = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        info = cache.info()
        assert info["misses"] == 1 and info["hits"] == 0 and info["evictions"] == 0
        # A session with caching disabled still parses correctly.
        session = ParserSession(english_grammar(), engine="vector", template_cache_size=0)
        for _ in range(2):
            assert session.parse(["the", "dog", "runs"]).locally_consistent
        assert session.cache_info() == {
            "size": 0, "maxsize": 0, "hits": 0, "misses": 2, "evictions": 0,
        }

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_counters_for_service_metrics_reuse(self):
        """hits/misses/evictions are public — the service snapshot sums them."""
        cache: LRUCache[int] = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)

    def test_parse_many_groups_shapes_before_parsing(self):
        """Shape pre-sort: a shape-interleaved batch through a 1-slot
        template cache misses once per *distinct* shape, not once per
        alternation — and results still come back in arrival order."""
        session = ParserSession(english_grammar(), engine="vector", template_cache_size=1)
        sentences = [sentence_of_length(3 if i % 2 == 0 else 5) for i in range(8)]
        results = session.parse_many(sentences)
        info = session.cache_info()
        assert info["misses"] == 2  # one per distinct shape, not 8
        assert info["evictions"] == 1
        # Arrival order is restored after grouped execution.
        for result, sentence in zip(results, sentences, strict=True):
            assert result.network.n_words == len(sentence)

    def test_on_evict_fires_on_displacement_and_clear(self):
        evicted: list[int] = []
        cache: LRUCache[int] = LRUCache(2, on_evict=evicted.append)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # LRU eviction of "a"
        assert evicted == [1]
        cache.put("b", 20)  # displacement of the old value
        assert evicted == [1, 2]
        cache.clear()
        assert sorted(evicted) == [1, 2, 3, 20]

    def test_pickled_cache_starts_empty(self):
        """Fork/pickle contract: a cache crossing a process boundary
        arrives empty (entries may hold process-local resources)."""
        import pickle

        cache: LRUCache[int] = LRUCache(4, on_evict=lambda v: None)
        cache.put("a", 1)
        cache.get("a")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 4
        assert len(clone) == 0
        assert (clone.hits, clone.misses, clone.evictions) == (0, 0, 0)
        clone.put("b", 2)  # still a working cache after the round-trip
        assert clone.get("b") == 2


class TestSessionEquivalence:
    @pytest.mark.parametrize("engine", ["serial", "vector", "pram"])
    def test_parse_many_equals_loop_of_one_shot_parses(self, engine):
        grammar = english_grammar()
        sentences = [
            ["the", "dog", "runs"],
            ["the", "cat", "sleeps"],  # same shape: exercises the warm path
            ["dogs", "bark"],
            ["the", "dog", "sees", "the", "cat"],
        ]
        batch = ParserSession(grammar, engine=engine).parse_many(sentences)
        for sentence, warm in zip(sentences, batch, strict=True):
            cold = ParserSession(grammar, engine=engine).parse(sentence)
            assert_same_network(warm.network, cold.network)
            assert warm.locally_consistent == cold.locally_consistent
            assert warm.ambiguous == cold.ambiguous
            for stat in DETERMINISTIC_STATS:
                assert getattr(warm.stats, stat) == getattr(cold.stats, stat), stat

    def test_no_state_leaks_between_parses(self):
        session = ParserSession(english_grammar(), engine="vector")
        first = session.parse(["the", "dog", "runs"])
        session.parse(["the", "old", "cat", "sleeps"])  # different shape in between
        session.parse(["dogs", "bark"])
        again = session.parse(["the", "dog", "runs"])
        assert_same_network(first.network, again.network)
        for stat in DETERMINISTIC_STATS:
            assert getattr(first.stats, stat) == getattr(again.stats, stat), stat

    def test_session_filter_limit_default_and_override(self):
        session = ParserSession(english_grammar(), engine="vector", filter_limit=0)
        limited = session.parse(["the", "dog", "runs"])
        assert limited.stats.filtering_iterations == 0
        # An explicit argument overrides the session default (None = to
        # fixpoint, which must match the unlimited one-shot path).
        unlimited = session.parse(["the", "dog", "runs"], filter_limit=None)
        cold = ParserSession(english_grammar(), engine="vector").parse(["the", "dog", "runs"])
        assert np.array_equal(unlimited.network.alive, cold.network.alive)
        assert np.array_equal(unlimited.network.matrix, cold.network.matrix)


class TestCompiledGrammar:
    def test_compile_is_cached_per_grammar_object(self):
        english = english_grammar()
        program = program_grammar()
        assert compile_grammar(english) is compile_grammar(english)
        assert compile_grammar(program) is not compile_grammar(english)
        # Sessions share the per-grammar compilation.
        assert ParserSession(english).compiled is compile_grammar(english)

    def test_partition_matches_grammar(self):
        grammar = english_grammar()
        compiled = compile_grammar(grammar)
        assert [c.name for c in compiled.unary] == [
            c.name for c in grammar.unary_constraints
        ]
        assert [c.name for c in compiled.binary] == [
            c.name for c in grammar.binary_constraints
        ]
        assert all(c.arity == 1 for c in compiled.unary)
        assert all(c.arity == 2 for c in compiled.binary)


class TestRegistry:
    def test_builtin_engines_resolve(self):
        assert available_engines() == (
            "maspar", "mesh", "pram", "serial", "serial-exhaustive", "vector"
        )
        assert create_engine("vector").name == "vector"

    def test_instance_passes_through(self):
        engine = VectorEngine()
        assert create_engine(engine) is engine

    def test_unknown_engine_raises(self):
        with pytest.raises(ReproError, match="unknown engine"):
            create_engine("quantum")

    def test_register_custom_engine(self):
        class NullEngine(ParserEngine):
            name = "null-test"

            def run(self, network, *, compiled=None, filter_limit=None, trace=None):
                return EngineStats()

        register_engine("null-test", NullEngine)
        try:
            assert isinstance(create_engine("null-test"), NullEngine)
            assert "null-test" in available_engines()
        finally:
            from repro.engines import registry

            registry._REGISTRY.pop("null-test", None)
