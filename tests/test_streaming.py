"""The incremental streaming core, end to end.

The load-bearing invariant: for every prefix length k of a sentence,
``StreamingParse.extend`` (word at a time) produces a settled network,
verdict, and statistics **bit-identical** to a fresh
``ParserSession.parse`` of the same k words.  Each step settles the
template that ``NetworkTemplate.extend`` built for the grown prefix,
with its own unary-first masks; no masks cross a word.

Also covered here: prefix template extension (one full build, then
``extended`` ones), broken-stream semantics, the service-level streaming API
(``ParseService.submit_stream``, whose tokens are ordinary prefix
requests) with its metrics conservation, and the ``repro stream`` CLI.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro import ParserSession
from repro.cli import main as cli_main
from repro.errors import LexiconError, StreamError
from repro.grammar.builtin import english_grammar, program_grammar
from repro.serve import ParseService
from repro.workloads import sentence_of_length
from tests.test_fused_schedule import unary_only_grammar

#: EngineStats fields that must match a fresh parse exactly (wall time
#: and memory extras are environment-dependent and excluded).
DETERMINISTIC_STATS = (
    "engine",
    "unary_checks",
    "pair_checks",
    "role_values_killed",
    "matrix_entries_zeroed",
    "consistency_passes",
    "filtering_iterations",
)


def assert_prefix_identical(streamed, fresh, k: int) -> None:
    assert np.array_equal(
        streamed.network.alive_bits, fresh.network.alive_bits
    ), f"alive bits diverge at prefix {k}"
    assert np.array_equal(
        streamed.network.matrix_bits, fresh.network.matrix_bits
    ), f"matrix bits diverge at prefix {k}"
    assert streamed.locally_consistent == fresh.locally_consistent
    assert streamed.ambiguous == fresh.ambiguous
    for field in DETERMINISTIC_STATS:
        assert getattr(streamed.stats, field) == getattr(fresh.stats, field), (
            f"stats.{field} diverges at prefix {k}: "
            f"{getattr(streamed.stats, field)} != {getattr(fresh.stats, field)}"
        )


class TestPrefixEquivalence:
    @pytest.mark.parametrize("engine", ["vector"])
    def test_every_prefix_bit_identical_to_fresh_parse(self, engine):
        grammar = english_grammar()
        words = sentence_of_length(10)
        streaming = ParserSession(grammar, engine=engine)
        reference = ParserSession(grammar, engine=engine)
        stream = streaming.stream()
        for k, word in enumerate(words, start=1):
            streamed = stream.extend(word)
            fresh = reference.parse(words[:k])
            assert_prefix_identical(streamed, fresh, k)
            assert streamed.stats.extra.get("streamed") is True, k
        assert stream.words == tuple(words)
        assert stream.result() is streamed

    def test_fast_path_marks_streamed_and_reference_does_not(self):
        session = ParserSession(english_grammar(), engine="vector")
        stream = session.stream()
        result = stream.extend("the")
        assert result.stats.extra.get("streamed") is True
        assert "streamed" not in session.parse(["the"]).stats.extra

    def test_grammar_without_binary_constraints_is_not_marked_streamed(self):
        """No fused mask, so every step runs the per-constraint schedule."""
        grammar = unary_only_grammar()
        stream = ParserSession(grammar, engine="vector").stream()
        reference = ParserSession(grammar, engine="vector")
        for k in range(1, 4):
            streamed = stream.extend("w")
            assert_prefix_identical(streamed, reference.parse(["w"] * k), k)
            assert "fused_binary_kernel" not in streamed.stats.extra
            assert "streamed" not in streamed.stats.extra

    def test_program_grammar_stream_matches(self):
        grammar = program_grammar()
        words = ["The", "program", "runs"]
        stream = ParserSession(grammar, engine="vector").stream(words)
        fresh = ParserSession(grammar, engine="vector").parse(words)
        assert_prefix_identical(stream.result(), fresh, len(words))

    def test_filter_limited_session_still_matches_via_fallback(self):
        grammar = english_grammar()
        words = sentence_of_length(6)
        streaming = ParserSession(grammar, engine="vector", filter_limit=1)
        reference = ParserSession(grammar, engine="vector", filter_limit=1)
        stream = streaming.stream()
        for k, word in enumerate(words, start=1):
            streamed = stream.extend(word)
            fresh = reference.parse(words[:k])
            assert_prefix_identical(streamed, fresh, k)
            assert "streamed" not in streamed.stats.extra  # fallback path

    @pytest.mark.sanitize
    @pytest.mark.parametrize("engine", ["vector"])
    def test_streaming_under_sanitizer(self, sanitized, engine):
        grammar = english_grammar()
        words = sentence_of_length(7)
        streaming = ParserSession(grammar, engine=engine)
        reference = ParserSession(grammar, engine=engine)
        stream = streaming.stream()
        for k, word in enumerate(words, start=1):
            assert_prefix_identical(stream.extend(word), reference.parse(words[:k]), k)


class TestTemplateExtension:
    def test_one_cumulative_build_per_stream(self):
        session = ParserSession(english_grammar(), engine="vector")
        words = sentence_of_length(8)
        session.stream(words)
        builds = session.template_builds()
        assert builds == {"full": 1, "extended": len(words) - 1}

    def test_second_stream_hits_the_template_cache(self):
        session = ParserSession(english_grammar(), engine="vector")
        words = sentence_of_length(5)
        session.stream(words)
        before = session.template_builds()
        session.stream(words)  # same shapes: all cache hits
        assert session.template_builds() == before

    def test_extended_template_is_bit_identical_to_full_build(self):
        from repro.pipeline.compiled import compile_grammar
        from repro.pipeline.template import NetworkTemplate

        grammar = english_grammar()
        compiled = compile_grammar(grammar)
        words = sentence_of_length(6)
        previous = None
        for k in range(1, len(words) + 1):
            sent = grammar.tokenize(words[:k])
            if previous is None:
                template = NetworkTemplate.build(grammar, sent.category_sets)
            else:
                previous.vector_masks(compiled)
                template = previous.extend(sent.category_sets[-1])
            full = NetworkTemplate.build(grammar, sent.category_sets)
            assert np.array_equal(template.base_bits, full.base_bits)
            mine, theirs = template.vector_masks(compiled), full.vector_masks(compiled)
            for a, b in zip(mine.unary, theirs.unary, strict=True):
                assert np.array_equal(a, b)
            assert np.array_equal(mine.survivors, theirs.survivors)
            assert np.array_equal(mine.fused, theirs.fused)
            assert not mine.binary_materialized
            for a, b in zip(mine.binary, theirs.binary, strict=True):
                assert np.array_equal(a, b)
            previous = template


class TestStreamLifecycle:
    def test_result_before_any_word_raises(self):
        stream = ParserSession(english_grammar()).stream()
        with pytest.raises(StreamError):
            stream.result()

    def test_unknown_word_rejects_at_the_door(self):
        stream = ParserSession(english_grammar()).stream(["the"])
        with pytest.raises(LexiconError):
            stream.extend("zzz-not-a-word")
        # nothing was applied: the stream is still usable
        assert not stream.broken
        stream.extend("dog")
        assert stream.n_words == 2

    def test_internal_failure_breaks_the_stream(self, monkeypatch):
        session = ParserSession(english_grammar(), engine="vector")
        stream = session.stream(["the"])

        def boom(*args, **kwargs):
            raise RuntimeError("injected template failure")

        monkeypatch.setattr(session, "template_for", boom)
        with pytest.raises(RuntimeError):
            stream.extend("dog")
        assert stream.broken
        monkeypatch.undo()
        with pytest.raises(StreamError):
            stream.extend("dog")
        # the last good prefix survives for inspection
        assert stream.n_words == 1
        assert stream.result() is not None

    def test_streams_share_a_session_sequentially(self):
        session = ParserSession(english_grammar(), engine="vector")
        first = session.stream(["the", "dog"])
        second = session.stream(["the", "cat"])
        assert first.n_words == 2 and second.n_words == 2


class TestServiceStreaming:
    def test_service_stream_bit_identical_and_metrics_conserve(self):
        grammar = english_grammar()
        words = sentence_of_length(6)
        reference = ParserSession(grammar, engine="vector")
        with ParseService(grammar, engine="vector", workers=2) as service:
            first = service.submit_stream()
            second = service.submit_stream()
            futures = []
            for word in words:
                futures.append((first.feed(word), second.feed(word)))
                service.submit(["the", "dog", "runs"])  # interleaved plain traffic
            for k, (f1, f2) in enumerate(futures, start=1):
                fresh = reference.parse(words[:k])
                assert_prefix_identical(f1.result(timeout=30), fresh, k)
                assert_prefix_identical(f2.result(timeout=30), fresh, k)
            assert first.words == second.words == tuple(words)
            first.close()
            second.close()
            assert service.drain(timeout=30)
            counters = service.snapshot()["counters"]
        assert counters["submitted"] == counters["accepted"] + counters["rejected"]
        assert counters["accepted"] == (
            counters["completed"] + counters["failed"]
            + counters["expired"] + counters["cancelled"]
        )
        # Every token is one ordinary request: two streams plus the
        # interleaved plain traffic.
        assert counters["completed"] == 3 * len(words)

    def test_expired_token_does_not_break_later_feeds(self):
        from repro.serve import DeadlineExceeded

        grammar = english_grammar()
        reference = ParserSession(grammar, engine="vector")
        with ParseService(grammar, engine="vector", workers=1) as service:
            stream = service.submit_stream()
            stream.feed("the").result(timeout=30)
            future = stream.feed("dog", timeout=-1.0)  # expired on arrival
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            # Nothing is retained, so the next feed submits the whole
            # prefix, the expired word included.
            result = stream.feed("runs").result(timeout=30)
            assert_prefix_identical(result, reference.parse(["the", "dog", "runs"]), 3)
            assert stream.words == ("the", "dog", "runs")
            counters = service.snapshot()["counters"]
            assert counters["expired"] == 1
            assert counters["submitted"] == counters["accepted"] + counters["rejected"]

    def test_process_mode_stream_prefixes_run_in_the_pool(self):
        grammar = english_grammar()
        words = sentence_of_length(5)
        reference = ParserSession(grammar, engine="vector")
        with ParseService(
            grammar, engine="vector", workers=2, workers_mode="process"
        ) as service:
            with service.submit_stream() as stream:
                futures = [stream.feed(word) for word in words]
                for k, future in enumerate(futures, start=1):
                    result = future.result(timeout=60)
                    assert_prefix_identical(result, reference.parse(words[:k]), k)
                    assert result.stats.extra["worker_pid"] != os.getpid()

    def test_submit_stream_requires_running_service(self):
        from repro.serve import ServiceUnavailable

        service = ParseService(english_grammar(), engine="vector", workers=1)
        with pytest.raises(ServiceUnavailable):
            service.submit_stream()
        with service:
            stream = service.submit_stream()
            stream.feed("the").result(timeout=30)
        # A refused submit propagates and appends nothing.
        with pytest.raises(ServiceUnavailable):
            stream.feed("dog")
        assert stream.words == ("the",)


class TestStreamCli:
    def test_stream_words_as_arguments(self):
        out = io.StringIO()
        code = cli_main(["stream", "the", "dog", "runs"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "prefix-extended template build" in text
        assert "[  3] runs" in text

    def test_stream_rejected_sentence_exits_nonzero(self):
        out = io.StringIO()
        code = cli_main(["stream", "dog", "dog"], out=out)
        assert code == 1

    def test_serve_bench_streams_smoke(self):
        out = io.StringIO()
        code = cli_main(
            ["serve-bench", "--streaming", "--shapes", "2", "--workers", "2"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "tokens/s" in text
