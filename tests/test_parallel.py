"""The process-parallel data plane: shared store, pool, ParallelSession.

The load-bearing invariants:

* **bit-identity** — ``ParallelSession.parse_many`` equals a
  single-process ``ParserSession.parse_many`` on the same sentences,
  network for network and stat for stat, across worker counts and both
  vector schedules (fused, and per-constraint under ``filter_limit``);
  scheduling and process placement never change what is computed;
* **shared-memory hygiene** — a closed session/store leaves no
  ``/dev/shm`` segment behind (the store is the sole unlink-er, workers
  only ever close their own mapping);
* **ownership contract** — export is idempotent per shape, a closed
  store refuses to export, attach validates the grammar, and attached
  views are read-only;
* **both start methods work** — fork (default here) and spawn, which
  exercises the pickle path for grammars and handles.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro import ParallelSession, ParserSession
from repro.errors import ReproError
from repro.grammar.builtin import english_grammar, program_grammar
from repro.parallel import ProcessPool, SharedTemplateStore, attach_template
from repro.parallel.pool import default_start_method
from repro.pipeline.compiled import compile_grammar
from repro.workloads import sentence_of_length
from tests.test_pipeline import DETERMINISTIC_STATS, assert_same_network

SHM_DIR = Path("/dev/shm")

#: Shape-interleaved workload: repeated shapes (template reuse), fresh
#: shapes (multiple exports), and the lone-noun n=1 rejection case so
#: the verdict path is exercised, not just consistent parses.
LENGTHS = (3, 5, 7, 3, 10, 5, 1, 7, 3, 5, 8, 10, 2, 5)


def workload() -> list[list[str]]:
    return [sentence_of_length(n) for n in LENGTHS]


def shm_segments() -> set[str]:
    """Shared-memory block names (``psm_*``, the SharedMemory default).

    Deliberately excludes ``sem.mp-*`` pool semaphores: those belong to
    multiprocessing itself and are finalized by the resource tracker,
    not by our ownership contract.
    """
    if not SHM_DIR.exists():  # pragma: no cover - non-Linux fallback
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


def assert_results_equal(parallel_results, serial_results):
    for warm, cold in zip(parallel_results, serial_results, strict=True):
        assert_same_network(warm.network, cold.network)
        assert warm.locally_consistent == cold.locally_consistent
        assert warm.ambiguous == cold.ambiguous
        for stat in DETERMINISTIC_STATS:
            assert getattr(warm.stats, stat) == getattr(cold.stats, stat), stat


class TestParallelEquivalence:
    """Seeded sweep: the pool is an implementation detail, not a semantics."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("engine", ["vector"])
    def test_bit_identical_to_single_process(self, workers, engine):
        grammar = english_grammar()
        sentences = workload()
        baseline = ParserSession(grammar, engine=engine).parse_many(sentences)
        before = shm_segments()
        with ParallelSession(grammar, engine=engine, workers=workers) as session:
            results = session.parse_many(sentences)
            assert session.shared_bytes() > 0
        assert_results_equal(results, baseline)
        # Every sentence really ran in a child process.
        pids = {r.stats.extra.get("worker_pid") for r in results}
        assert None not in pids and os.getpid() not in pids
        assert {r.stats.extra["kernel_backend"] for r in results} == {"packed"}
        # Clean shutdown unlinked every exported block.
        assert shm_segments() <= before

    def test_arrival_order_restored_across_chunks(self):
        with ParallelSession(english_grammar(), workers=2, chunk_size=2) as session:
            results = session.parse_many(workload())
        for result, n in zip(results, LENGTHS, strict=True):
            assert result.network.n_words == n

    def test_filter_limit_matches_serial(self):
        grammar = english_grammar()
        sentence = sentence_of_length(10)
        cold = ParserSession(grammar, filter_limit=1).parse(sentence)
        with ParallelSession(grammar, workers=2, filter_limit=1) as session:
            warm = session.parse(sentence)
            override = session.parse(sentence, filter_limit=None)
        assert_same_network(warm.network, cold.network)
        assert warm.stats.filtering_iterations == cold.stats.filtering_iterations
        full = ParserSession(grammar).parse(sentence)
        assert_same_network(override.network, full.network)

    def test_child_cache_eviction_keeps_results_correct(self):
        """A 1-slot child template cache thrashes across shapes; evicted
        attachments are closed, re-attached lazily, and the results stay
        bit-identical."""
        grammar = english_grammar()
        sentences = workload()
        baseline = ParserSession(grammar).parse_many(sentences)
        with ParallelSession(grammar, workers=2, child_cache_size=1) as session:
            results = session.parse_many(sentences)
        assert_results_equal(results, baseline)

    def test_spawn_start_method(self):
        """Spawn ships the grammar by pickle (compiled closures must not
        cross) and re-imports the child runtime from scratch."""
        grammar = english_grammar()
        sentences = [sentence_of_length(n) for n in (3, 5, 3)]
        baseline = ParserSession(grammar).parse_many(sentences)
        before = shm_segments()
        with ParallelSession(grammar, workers=2, start_method="spawn") as session:
            assert session.start_method == "spawn"
            results = session.parse_many(sentences)
        assert_results_equal(results, baseline)
        assert shm_segments() <= before


class TestSharedTemplateStore:
    def test_export_is_idempotent_per_shape(self):
        grammar = english_grammar()
        session = ParserSession(grammar)
        template = session.template_for(sentence_of_length(3))
        other = session.template_for(sentence_of_length(5))
        with SharedTemplateStore() as store:
            first = store.export(template, session.compiled)
            second = store.export(template, session.compiled)
            assert first is second
            assert len(store) == 1
            store.export(other, session.compiled)
            assert len(store) == 2
            assert store.nbytes() == first.nbytes + store.export(other, session.compiled).nbytes

    def test_closed_store_refuses_export_and_unlinks(self):
        grammar = english_grammar()
        session = ParserSession(grammar)
        template = session.template_for(sentence_of_length(3))
        before = shm_segments()
        store = SharedTemplateStore()
        handle = store.export(template, session.compiled)
        assert handle.shm_name.lstrip("/") in shm_segments()
        store.close()
        store.close()  # idempotent
        assert shm_segments() <= before
        with pytest.raises(ReproError):
            store.export(template, session.compiled)

    def test_attach_validates_grammar_and_freezes_views(self):
        grammar = english_grammar()
        session = ParserSession(grammar)
        template = session.template_for(sentence_of_length(5))
        with SharedTemplateStore() as store:
            handle = store.export(template, session.compiled)
            with pytest.raises(ReproError):
                attach_template(handle, program_grammar(), compile_grammar(program_grammar()))
            attached, shm = attach_template(handle, grammar, session.compiled)
            try:
                np.testing.assert_array_equal(attached.base_bits, template.base_bits)
                with pytest.raises(ValueError):
                    attached.base_bits[0, 0] = 0
                masks = attached.vector_masks(session.compiled)
                exported = template.vector_masks(session.compiled)
                assert not exported.binary_materialized  # export must not evaluate it
                for name in ("survivors", "fused"):
                    array = getattr(masks, name)
                    np.testing.assert_array_equal(array, getattr(exported, name))
                    with pytest.raises(ValueError):
                        array[0] = 0
                # An attached template binds and parses like the original.
                sent = grammar.tokenize(sentence_of_length(5))
                assert_same_network(attached.bind(sent), template.bind(sent))
                # The per-constraint schedule evaluates ``binary`` here,
                # lazily, since the block carries only the fused rows.
                assert not masks.binary_materialized
                network = attached.bind(sent)
                session.engine.run(network, compiled=session.compiled, filter_limit=1)
                assert masks.binary_materialized
                parent = ParserSession(grammar, filter_limit=1).parse(sent)
                assert_same_network(network, parent.network)
            finally:
                shm.close()

    def test_handle_geometry(self):
        grammar = english_grammar()
        session = ParserSession(grammar)
        template = session.template_for(sentence_of_length(7))
        with SharedTemplateStore() as store:
            handle = store.export(template, session.compiled)
            assert handle.nv == template.nv
            assert handle.grammar_name == grammar.name
            base = handle.spec("base_bits")
            assert base is not None and base.shape == template.base_bits.shape
            assert handle.spec("missing") is None
            for spec in handle.specs:
                assert spec.offset % 8 == 0
                assert spec.offset + spec.nbytes <= handle.nbytes


class TestProcessPool:
    def test_engine_instances_are_rejected(self):
        from repro import VectorEngine

        with pytest.raises(ReproError):
            ProcessPool(english_grammar(), VectorEngine())
        with pytest.raises(ReproError):
            ProcessPool(english_grammar(), workers=0)

    def test_default_start_method_is_available(self):
        import multiprocessing

        assert default_start_method() in multiprocessing.get_all_start_methods()

    def test_shutdown_is_idempotent(self):
        pool = ProcessPool(english_grammar(), workers=1)
        pool.shutdown()
        pool.shutdown()


class TestServiceProcessMode:
    def test_process_mode_bit_identical_and_leak_free(self):
        from repro import ParseService

        grammar = english_grammar()
        sentences = workload()
        baseline = ParserSession(grammar).parse_many(sentences)
        before = shm_segments()
        with ParseService(
            grammar, workers=1, workers_mode="process", max_linger=0.001
        ) as service:
            results = service.parse_many(sentences)
            snap = service.snapshot()
        assert_results_equal(results, baseline)
        assert snap["service"]["workers_mode"] == "process"
        assert snap["service"]["memory"]["shared_store_bytes"] > 0
        assert snap["counters"]["completed"] == len(sentences)
        assert shm_segments() <= before

    def test_workers_mode_validation(self):
        from repro import ParseService, VectorEngine

        with pytest.raises(ValueError):
            ParseService(english_grammar(), workers_mode="fiber")
        with pytest.raises(ValueError):
            ParseService(english_grammar(), workers_mode="process", engine=VectorEngine())
