"""The numpy data-parallel CDG parser.

This engine is the repository's stand-in for SIMD execution (see
DESIGN.md): every constraint is evaluated over *all* role values — or all
O(n^2) x O(n^2) pairs — in one broadcast numpy expression, mirroring the
ACU broadcasting one instruction to every PE.  Consistency maintenance is
the segmented OR-along-rows / AND-across-arcs sweep from
:mod:`repro.propagation.consistency` — the same dataflow the MasPar
performs with ``scanOr``/``scanAnd`` (Figures 10 and 12).

The engine runs on the **packed execution core**: arc matrices, alive
vector and the cached binary masks are uint64 bit arrays
(:mod:`repro.network.bitset`), so binary propagation is one word-wide
AND with a popcount delta and the consistency sweep touches 1/8th of
the memory of a byte-per-bool representation — the software analogue
of the MP-1 pushing single-bit flags through 4-bit PEs.
``BENCH_memory.json`` records the footprint against that byte form.

The constraint evaluations themselves are pure functions of the
network's *template* (field arrays + category table), so the engine
pulls them from :meth:`NetworkTemplate.vector_masks`: the first parse
of a sentence shape evaluates and caches, every later parse of that
shape replays the cached masks.  Through a
:class:`~repro.pipeline.session.ParserSession` this is where batch
throughput comes from.  The masks are unary first: the binary
constraints of the fused mask are evaluated only among the values the
unary constraints leave alive, and the per-constraint binary masks only
when the per-constraint schedule asks for them.

The call picks the schedule.  With no trace hook, no filter limit and
at least one binary constraint, the engine runs the **fused schedule**,
whose work follows the values still alive rather than NV:

* unary: one kill of the template's folded dead set
  (``VectorMasks.unary_fold``).  Every bind starts fully alive, so the
  per-constraint kill rounds end in a template constant, and so do
  their ``unary_checks`` and kill counts.  A network that already has
  kills runs the rounds;
* binary: one word-wide AND of the fused mask into the K survivors'
  rows (``VectorMasks.fused``, evaluated over the K x K survivor block
  only).  Dead rows and columns are already zero, so the bits and the
  newly-zeroed count equal a full-width AND of the full fused mask;
* consistency: :func:`~repro.propagation.consistency.settle_alive_block`
  runs the sweep to quiescence on the K x K block of the K values still
  alive (one ``support_any`` call over K rows per pass), then applies
  the union of its kills with one ``kill``.  A sweep only kills values
  and never clears an entry between two live values, and a dead value's
  row and column are already zero, so the block holds every bit the
  full-width sweep reads: the settled network and every counter are
  identical.  When more than three quarters of the values are alive the
  block saves less than it costs, and the full-width sweep runs.

Otherwise it runs the **per-constraint schedule**: one unary round and
one cached mask per constraint, each binary mask followed by a full
consistency sweep, so a trace hook observes every step and
``filter_limit`` bounds the sweeps.  The MP-1 zeroes rows and columns
in place instead of shrinking them (design decision 4); this schedule
keeps that form, full width.  Both schedules reach the same (unique)
greatest fixpoint, so the settled networks are bit-identical; only the
sweep-order counters (``consistency_passes``, ``filtering_iterations``
and the kill/zero attribution between them) differ.

Results are bit-identical to :class:`repro.engines.serial.SerialEngine`
on either schedule; only the wall-clock differs (by orders of
magnitude, which is Table RES-T3's point).
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import EngineStats, ParserEngine, TraceHook
from repro.network.network import ConstraintNetwork
from repro.pipeline.compiled import CompiledGrammar, compile_grammar
from repro.propagation.consistency import consistency_step_vector, settle_alive_block
from repro.propagation.filtering import filter_network


class VectorEngine(ParserEngine):
    """Vectorized (numpy broadcast) implementation on the packed core.

    The schedule follows from the call (see the module docstring): the
    fused schedule when no per-constraint observation is requested
    (``trace is None`` and ``filter_limit is None``) and the grammar has
    binary constraints, the per-constraint schedule otherwise.
    """

    name = "vector"

    def run(
        self,
        network: ConstraintNetwork,
        *,
        compiled: CompiledGrammar | None = None,
        filter_limit: int | None = None,
        trace: TraceHook | None = None,
    ) -> EngineStats:
        compiled = compiled or compile_grammar(network.grammar)
        masks = network.template.vector_masks(compiled)
        if trace is None and filter_limit is None and masks.fused is not None:
            return self._run_fused(network, masks=masks, compiled=compiled)
        stats = EngineStats()
        self._unary_rounds(network, masks=masks, compiled=compiled, stats=stats, trace=trace)
        if trace:
            trace("unary-done", network)

        # -- binary propagation: one cached mask per constraint, each
        # followed by a full consistency sweep.
        for constraint, both in zip(compiled.binary, masks.binary, strict=True):
            stats.pair_checks += network.nv * network.nv
            stats.matrix_entries_zeroed += network.apply_pair_mask_bits(both)
            if trace:
                trace(f"binary:{constraint.name}", network)

            killed = consistency_step_vector(network)
            stats.role_values_killed += killed
            stats.consistency_passes += 1
            if trace:
                trace(f"consistency:{constraint.name}", network)

        # -- filtering ----------------------------------------------------

        def counting_step(net: ConstraintNetwork) -> int:
            killed = consistency_step_vector(net)
            stats.role_values_killed += killed
            stats.consistency_passes += 1
            return killed

        stats.filtering_iterations = filter_network(network, counting_step, limit=filter_limit)
        if trace:
            trace("filtering-done", network)
        return stats

    def _run_fused(
        self,
        network: ConstraintNetwork,
        *,
        masks,
        compiled: CompiledGrammar,
    ) -> EngineStats:
        """The no-trace, no-limit schedule; its work follows the alive values.

        One kill of the template's folded unary dead set (the rounds
        themselves on a network that already has kills, since the fold
        assumes a fresh bind), one AND of the fused binary mask into the
        survivors' rows, then the consistency fixpoint on the block of
        values still alive.  Every counter equals the unfolded form's
        (unary rounds one constraint at a time, every binary mask over
        all NV^2 pairs, then the full-width sweep).  ``pair_checks`` is
        that form's model count, ``NV^2 * k_b``: the template evaluates
        the binary constraints only among the unary survivors.
        """
        stats = EngineStats()
        if network.fully_alive():
            fold = masks.unary_fold
            network.kill(fold.dead)
            stats.unary_checks = fold.unary_checks
            stats.role_values_killed = fold.dead.size
        else:
            # Earlier kills (``apply_constraint``) change what each round
            # sees, so the fold's counters do not apply: run the rounds.
            self._unary_rounds(network, masks=masks, compiled=compiled, stats=stats)
        stats.pair_checks = network.nv * network.nv * len(compiled.binary)
        stats.matrix_entries_zeroed = network.apply_row_mask_bits(masks.survivors, masks.fused)
        settled = settle_alive_block(network)
        stats.role_values_killed += settled.role_values_killed
        stats.consistency_passes = settled.consistency_passes
        stats.filtering_iterations = settled.filtering_iterations
        stats.extra["fused_binary_kernel"] = True
        return stats

    @staticmethod
    def _unary_rounds(
        network: ConstraintNetwork,
        *,
        masks,
        compiled: CompiledGrammar,
        stats: EngineStats,
        trace: TraceHook | None = None,
    ) -> None:
        """Unary propagation: one cached permitted vector per constraint."""
        for constraint, permitted in zip(compiled.unary, masks.unary, strict=True):
            dead = np.nonzero(network.alive & ~permitted)[0]
            stats.unary_checks += network.alive_count()
            network.kill(dead)
            stats.role_values_killed += len(dead)
            if trace:
                trace(f"unary:{constraint.name}", network)
