"""Regression tests for the packed-core discipline repro-lint enforces.

The linter (RPR001/RPR002) demands that byte-mutating engines bracket
their work with ``materialize_bool()``/``repack()``; these tests pin the
*runtime* consequences: every engine hands the network back packed (even
when the parse raises), frozen views reject writes, and the
materialize/repack round trip is bit-exact under interleaved mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ParserSession, create_engine
from repro.grammar.builtin import program_grammar

ALL_ENGINES = ["serial", "serial-exhaustive", "vector", "pram", "maspar", "mesh"]


@pytest.fixture(scope="module")
def grammar():
    return program_grammar()


class TestEnginesLeaveNetworksPacked:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_parse_returns_packed_network(self, grammar, engine):
        session = ParserSession(grammar, engine=create_engine(engine))
        result = session.parse("The program runs")
        assert result.network.packed_active, (
            f"{engine} left the network in boolean mode; every engine must "
            "repack before returning (RPR002)"
        )

    @pytest.mark.parametrize("engine", ["serial", "pram"])
    def test_raising_trace_hook_still_repacks(self, grammar, engine):
        """The repack bracket must be a finally, not a tail call."""
        session = ParserSession(grammar, engine=create_engine(engine))

        class Boom(RuntimeError):
            pass

        captured = {}

        def exploding_trace(event, network):
            captured["network"] = network
            if event == "unary-done":
                raise Boom(event)

        with pytest.raises(Boom):
            session.parse("The program runs", trace=exploding_trace)
        assert captured["network"].packed_active, (
            f"{engine} left the network in boolean mode after a mid-parse "
            "exception; the materialize/repack bracket must be try/finally"
        )


class TestFrozenViews:
    def test_alive_view_write_raises(self, grammar):
        network = ParserSession(grammar, engine="vector").parse("The program runs").network
        assert network.packed_active
        with pytest.raises(ValueError, match="read-only"):
            network.alive[0] = False

    def test_matrix_view_write_raises(self, grammar):
        network = ParserSession(grammar, engine="vector").parse("The program runs").network
        with pytest.raises(ValueError, match="read-only"):
            network.matrix[0, 0] = True

    def test_views_thaw_in_bool_mode_and_refreeze_after(self, grammar):
        network = ParserSession(grammar, engine="vector").parse("The program runs").network
        network.materialize_bool()
        network.alive[0] = network.alive[0]  # writable: no raise
        network.repack()
        assert not network.alive.flags.writeable
        assert not network.matrix.flags.writeable


class TestMaterializeRepackRoundTrip:
    def test_roundtrip_bit_identical_after_interleaved_mutations(self, grammar):
        """Clear bits through byte writes, helpers, and reads in any
        interleaving: repack must reproduce exactly the boolean state."""
        network = ParserSession(grammar, engine="vector").parse("The program runs").network
        rng = np.random.default_rng(7)

        network.materialize_bool()
        alive, matrix = network.alive, network.matrix
        for _ in range(5):
            ones = np.argwhere(matrix)
            if len(ones):
                a, b = ones[rng.integers(len(ones))]
                matrix[a, b] = False  # byte-level clear
                matrix[b, a] = False
            live = np.nonzero(alive)[0]
            if len(live) > 1:
                network.kill(live[-1:])  # helper-level clear
            _ = network.alive_count()  # interleaved reads
            _ = network.domain_sizes()
        expected_alive = alive.copy()
        expected_matrix = matrix.copy()

        network.repack()
        assert network.packed_active
        np.testing.assert_array_equal(network.alive, expected_alive)
        np.testing.assert_array_equal(network.matrix, expected_matrix)

        # A second round trip is stable bit-for-bit.
        alive_bits = network.alive_bits.copy()
        matrix_bits = network.matrix_bits.copy()
        network.materialize_bool()
        network.repack()
        np.testing.assert_array_equal(network.alive_bits, alive_bits)
        np.testing.assert_array_equal(network.matrix_bits, matrix_bits)
