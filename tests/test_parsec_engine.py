"""Tests for the MasPar engine: instrumentation, timing model, memory."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import MasParEngine, ParserSession, VectorEngine
from repro.grammar.builtin import program_grammar
from repro.grammar.builtin.english import english_grammar
from repro.maspar import CostModel
from repro.parsec import timing
from repro.parsec.timing import (
    PAPER_TOY_PARSE_SECONDS,
    calibration_factor,
    step_function_seconds,
    virtualization_units,
)
from repro.workloads import toy_sentence


@pytest.fixture(scope="module")
def toy_result():
    return MasParEngine().parse(program_grammar(), "The program runs")


class TestInstrumentation:
    def test_processor_count_is_q2n4(self, toy_result):
        assert toy_result.stats.processors == 324

    def test_cycles_positive_and_reported(self, toy_result):
        assert toy_result.stats.extra["cycles"] > 0
        assert toy_result.stats.extra["virtualization_factor"] == 1

    def test_per_constraint_cycles_one_entry_per_binary(self, toy_result):
        cycles = toy_result.stats.extra["constraint_cycles"]
        assert len(cycles) == len(program_grammar().binary_constraints)
        assert all(c > 0 for c in cycles)

    def test_memory_within_pe_limits(self, toy_result):
        assert 0 < toy_result.stats.extra["bytes_per_pe"] <= 16 * 1024

    def test_op_counts_recorded(self, toy_result):
        ops = toy_result.stats.extra["ops"]
        assert ops.scan > 0  # scanOr/scanAnd ran
        assert ops.broadcast >= program_grammar().k  # one per constraint
        assert ops.router > 0

    def test_parallel_steps_total(self, toy_result):
        assert toy_result.stats.parallel_steps == toy_result.stats.extra["ops"].total()


class TestTimingModel:
    def test_calibrated_anchor(self, toy_result):
        assert toy_result.stats.simulated_seconds == pytest.approx(
            PAPER_TOY_PARSE_SECONDS, rel=1e-6
        )

    def test_calibration_factor_cached_and_positive(self):
        f1 = calibration_factor()
        f2 = calibration_factor()
        assert f1 == f2 > 0

    def test_first_calibrated_session_parse_avoids_deprecated_api(self):
        # The first calibrated parse runs the calibration parse inside
        # it; that inner parse must go through a session too.
        timing._raw_toy_cycles.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = ParserSession(program_grammar(), engine="maspar").parse(
                "The program runs"
            )
        assert result.stats.simulated_seconds == pytest.approx(
            PAPER_TOY_PARSE_SECONDS, rel=1e-6
        )

    def test_uncalibrated_engine(self):
        raw = MasParEngine(calibrate=False).parse(program_grammar(), "The program runs")
        assert raw.stats.extra["calibration_factor"] == 1.0
        assert raw.stats.simulated_seconds != pytest.approx(PAPER_TOY_PARSE_SECONDS)

    def test_step_function_formula(self):
        assert step_function_seconds(3) == pytest.approx(0.15)
        assert step_function_seconds(10) == pytest.approx(0.45)
        assert step_function_seconds(9) == pytest.approx(0.30)

    def test_virtualization_units_monotone(self):
        units = [virtualization_units(n) for n in range(1, 20)]
        assert units == sorted(units)

    def test_virtualized_sentence_costs_more(self):
        engine = MasParEngine()
        small = engine.parse(program_grammar(), toy_sentence(8))
        big = engine.parse(program_grammar(), toy_sentence(9))
        assert big.stats.extra["virtualization_factor"] == 2
        assert big.stats.simulated_seconds > 1.5 * small.stats.simulated_seconds

    def test_custom_cost_model(self):
        slow = CostModel(scan_cycles_per_stage=320)
        result = MasParEngine(cost=slow, calibrate=False).parse(
            program_grammar(), "The program runs"
        )
        base = MasParEngine(calibrate=False).parse(program_grammar(), "The program runs")
        assert result.stats.extra["cycles"] > base.stats.extra["cycles"]


class TestBehaviour:
    def test_filter_limit_zero_skips_final_filtering(self):
        engine = MasParEngine()
        bounded = engine.parse(program_grammar(), "The program runs", filter_limit=0)
        assert bounded.stats.filtering_iterations == 0

    def test_ambiguous_words_settle_identically(self):
        grammar = english_grammar()
        sentence = "the saw sees the duck"
        a = MasParEngine().parse(grammar, sentence)
        b = VectorEngine().parse(grammar, sentence)
        np.testing.assert_array_equal(a.network.alive, b.network.alive)
        np.testing.assert_array_equal(a.network.matrix, b.network.matrix)

    def test_rejected_sentence(self):
        result = MasParEngine().parse(program_grammar(), "program the runs")
        assert not result.locally_consistent

    def test_single_word(self):
        result = MasParEngine().parse(program_grammar(), "program")
        ref = VectorEngine().parse(program_grammar(), "program")
        np.testing.assert_array_equal(result.network.alive, ref.network.alive)
