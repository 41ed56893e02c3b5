"""The packed-bitset execution core: kernels and engine bit-identity.

Two layers of guarantees:

* kernel level — every :mod:`repro.network.bitset` primitive agrees
  with the obvious boolean-array reference, over layouts with odd
  segment widths, empty roles, and NV % 64 != 0;
* engine level — the packed vector engine settles to networks
  bit-identical to the byte-per-bool :class:`SerialEngine` oracle (stat
  for stat on its per-constraint schedule) over a seeded sweep of random
  grammars x random sentences.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ConstraintNetwork, ParserSession
from repro.grammar.builtin import english_grammar, program_grammar
from repro.kernels import bitops
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.workloads.random_grammars import random_grammar, random_sentence_for

#: Layouts that exercise the packing corners: single tiny role, odd
#: widths straddling byte boundaries, an empty role between non-empty
#: ones, segment widths over one word, NV not a multiple of 64.
LAYOUT_SLICES = [
    (slice(0, 3),),
    (slice(0, 8), slice(8, 16)),
    (slice(0, 5), slice(5, 5), slice(5, 17)),
    (slice(0, 1), slice(1, 14), slice(14, 14), slice(14, 21), slice(21, 90)),
    (slice(0, 30), slice(30, 61), slice(61, 130)),
]


def random_bools(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape) < 0.5


@pytest.fixture(params=range(len(LAYOUT_SLICES)), ids=lambda i: f"layout{i}")
def slices(request):
    return LAYOUT_SLICES[request.param]


@pytest.fixture
def layout(slices):
    return BitLayout(slices)


class TestKernels:
    def test_pack_unpack_roundtrip(self, layout):
        rng = np.random.default_rng(0)
        for shape in ((layout.nv,), (7, layout.nv)):
            bools = random_bools(rng, shape)
            words = bitset.pack_rows(bools, layout)
            assert words.dtype == bitset.WORD_DTYPE
            assert words.shape == shape[:-1] + (layout.n_words,)
            np.testing.assert_array_equal(bitset.unpack_rows(words, layout), bools)

    def test_padding_and_slack_bits_stay_zero(self, layout):
        words = bitset.pack_rows(np.ones(layout.nv, dtype=bool), layout)
        # Popcount over the raw words must equal NV exactly: any set
        # slack bit would break every popcount-delta computation.
        assert bitops.count_ones(words) == layout.nv
        np.testing.assert_array_equal(words, layout.full_words)

    def test_get_bit(self, layout):
        rng = np.random.default_rng(1)
        bools = random_bools(rng, layout.nv)
        words = bitset.pack_rows(bools, layout)
        for index in range(layout.nv):
            assert bitset.get_bit(words, index, layout) == bools[index]

    def test_count_ones_matches_sum(self, layout):
        rng = np.random.default_rng(2)
        bools = random_bools(rng, (5, layout.nv))
        assert bitops.count_ones(bitset.pack_rows(bools, layout)) == int(bools.sum())

    def test_segment_counts_match_boolean_reference(self, slices, layout):
        rng = np.random.default_rng(3)
        bools = random_bools(rng, layout.nv)
        counts = bitops.segment_counts(bitset.pack_rows(bools, layout), layout.seg_byte_starts)
        expected = [int(bools[sl].sum()) for sl in slices if sl.stop > sl.start]
        np.testing.assert_array_equal(counts, expected)

    def test_or_segments_matches_boolean_reference(self, slices, layout):
        rng = np.random.default_rng(4)
        bools = random_bools(rng, (layout.nv, layout.nv)) & (rng.random((layout.nv, 1)) < 0.7)
        words = bitset.pack_rows(bools, layout)
        has = bitops.or_segments(words, layout.seg_byte_starts) != 0
        nonempty = [sl for sl in slices if sl.stop > sl.start]
        for j, sl in enumerate(nonempty):
            np.testing.assert_array_equal(
                has[:, j], bools[:, sl].any(axis=1), err_msg=f"segment {j}"
            )

    def test_member_mask(self, layout):
        rng = np.random.default_rng(5)
        indices = np.unique(rng.integers(0, layout.nv, size=max(1, layout.nv // 3)))
        mask = bitset.member_mask(indices, layout)
        expected = np.zeros(layout.nv, dtype=bool)
        expected[indices] = True
        np.testing.assert_array_equal(bitset.unpack_rows(mask, layout), expected)

    def test_and_accumulate_counts_cleared_bits(self, layout):
        rng = np.random.default_rng(6)
        target_bools = random_bools(rng, (layout.nv, layout.nv))
        mask_bools = random_bools(rng, (layout.nv, layout.nv))
        target = bitset.pack_rows(target_bools, layout)
        mask = bitset.pack_rows(mask_bools, layout)
        cleared = bitops.and_accumulate(target, mask)
        assert cleared == int((target_bools & ~mask_bools).sum())
        np.testing.assert_array_equal(
            bitset.unpack_rows(target, layout), target_bools & mask_bools
        )

    def test_clear_rows_and_columns(self, layout):
        rng = np.random.default_rng(7)
        alive_bools = np.ones(layout.nv, dtype=bool)
        matrix_bools = random_bools(rng, (layout.nv, layout.nv))
        alive = bitset.pack_rows(alive_bools, layout)
        matrix = bitset.pack_rows(matrix_bools, layout)
        indices = np.unique(rng.integers(0, layout.nv, size=max(1, layout.nv // 4)))
        bitops.clear_rows_and_columns(
            alive, matrix, indices, bitset.keep_mask(indices, layout)
        )
        alive_bools[indices] = False
        matrix_bools[indices, :] = False
        matrix_bools[:, indices] = False
        np.testing.assert_array_equal(bitset.unpack_rows(alive, layout), alive_bools)
        np.testing.assert_array_equal(bitset.unpack_rows(matrix, layout), matrix_bools)


class TestNetworkModes:
    def network(self, words=("the", "dog", "runs")):
        grammar = english_grammar()
        return ConstraintNetwork(grammar, grammar.tokenize(list(words)))

    def test_networks_start_packed_with_frozen_views(self):
        net = self.network()
        assert net.packed_active
        with pytest.raises(ValueError):
            net.alive[0] = False
        with pytest.raises(ValueError):
            net.matrix[0, 0] = False

    def test_materialize_and_repack_roundtrip(self):
        net = self.network()
        before_alive = net.alive.copy()
        before_matrix = net.matrix.copy()
        net.materialize_bool()
        assert not net.packed_active
        net.alive[0] = False  # writable now; authoritative
        net.alive[0] = True
        net.repack()
        assert net.packed_active
        np.testing.assert_array_equal(net.alive, before_alive)
        np.testing.assert_array_equal(net.matrix, before_matrix)

    def test_kill_dispatches_identically_in_both_modes(self):
        packed = self.network()
        boolean = packed.clone()
        boolean.materialize_bool()
        victims = np.array([0, 3, packed.nv - 1])
        packed.kill(victims)
        boolean.kill(victims)
        np.testing.assert_array_equal(packed.alive, boolean.alive)
        np.testing.assert_array_equal(packed.matrix, boolean.matrix)
        assert packed.alive_count() == boolean.alive_count()
        np.testing.assert_array_equal(packed.domain_sizes(), boolean.domain_sizes())

    def test_apply_pair_mask_dispatches_identically_in_both_modes(self):
        packed = self.network()
        boolean = packed.clone()
        boolean.materialize_bool()
        rng = np.random.default_rng(8)
        permitted = random_bools(rng, (packed.nv, packed.nv))
        assert packed.apply_pair_mask(permitted) == boolean.apply_pair_mask(permitted)
        np.testing.assert_array_equal(packed.matrix, boolean.matrix)

    def test_packed_state_is_at_least_4x_smaller(self):
        net = self.network(("the", "old", "dog", "sees", "the", "old", "cat"))
        packed_bytes = net.state_nbytes()
        net.materialize_bool()
        assert net.state_nbytes() >= 4 * packed_bytes


class TestEngineBitIdentity:
    """Seeded property sweep: packed vector == serial oracle, bit for bit."""

    SEEDS = range(40)

    def test_packed_vector_matches_serial_oracle(self):
        # A trace hook selects the per-constraint schedule, which replays
        # the oracle's trajectory, so even the mutation *counts* must
        # match; the untraced (fused) schedule takes a different route to
        # the same fixpoint, so it is held to final-state bit identity
        # (the fixpoint is unique).
        events: list[str] = []

        def record(event, network):
            events.append(event)

        odd_widths = 0
        for seed in self.SEEDS:
            rng = random.Random(seed)
            grammar = random_grammar(rng)
            sentence = random_sentence_for(grammar, rng, max_len=4)
            oracle = ParserSession(grammar, engine="serial").parse(sentence)
            packed = ParserSession(grammar, engine="vector").parse(sentence, trace=record)
            fast = ParserSession(grammar, engine="vector").parse(sentence)
            if packed.network.nv % 64 != 0:
                odd_widths += 1
            assert packed.network.packed_active
            context = f"seed {seed}, sentence {sentence}"
            assert "fused_binary_kernel" not in packed.stats.extra, context
            np.testing.assert_array_equal(
                packed.network.alive, oracle.network.alive, err_msg=context
            )
            np.testing.assert_array_equal(
                packed.network.matrix, oracle.network.matrix, err_msg=context
            )
            assert packed.stats.role_values_killed == oracle.stats.role_values_killed, context
            assert (
                packed.stats.matrix_entries_zeroed == oracle.stats.matrix_entries_zeroed
            ), context
            assert packed.locally_consistent == oracle.locally_consistent, context
            assert packed.ambiguous == oracle.ambiguous, context
            np.testing.assert_array_equal(
                fast.network.alive, oracle.network.alive, err_msg=context
            )
            np.testing.assert_array_equal(
                fast.network.matrix, oracle.network.matrix, err_msg=context
            )
            assert fast.locally_consistent == oracle.locally_consistent, context
            assert fast.ambiguous == oracle.ambiguous, context
        # The sweep is only convincing if it hits rows the word padding
        # actually matters for.
        assert odd_widths > 0, "sweep never produced NV % 64 != 0"
        assert "filtering-done" in events, "the traced parses never ran"

    def test_english_grammar_end_to_end(self):
        grammar = english_grammar()
        words = ["the", "old", "dog", "sees", "the", "cat"]
        oracle = ParserSession(grammar, engine="serial").parse(words)
        packed = ParserSession(grammar, engine="vector").parse(words)
        np.testing.assert_array_equal(packed.network.alive, oracle.network.alive)
        np.testing.assert_array_equal(packed.network.matrix, oracle.network.matrix)
        assert packed.locally_consistent and oracle.locally_consistent

    def test_program_grammar_acceptance(self):
        grammar = program_grammar()
        oracle = ParserSession(grammar, engine="serial").parse(["The", "program", "runs"])
        packed = ParserSession(grammar, engine="vector").parse(["The", "program", "runs"])
        assert packed.locally_consistent == oracle.locally_consistent
        np.testing.assert_array_equal(packed.network.alive, oracle.network.alive)
