"""Incremental constraint propagation over an existing network.

Paper section 1.5: "Since CNs compactly store multiple parses and such
ambiguity is easy to detect, additional constraints can be applied as
needed to further refine the analysis of an ambiguous sentence" — the
core-then-contextual constraint staging of the authors' spoken-language
programme.  :func:`apply_constraint` is that operation: propagate one
extra constraint (not necessarily from the grammar) over a settled CN
and restore local consistency.

The same machinery is what makes parses *resumable*.  Eliminations are
monotone, and elementwise constraint evaluation over the old role
values does not depend on sentence length, so a streamed
(n+1)-word network seeded from an embedded n-word state
(:meth:`~repro.network.network.ConstraintNetwork.extend_from`) reaches
the settled network of a fresh full parse by re-applying the extended
masks — idempotent on the carried-over bits, so only the new word's
blocks actually change — and running consistency to quiescence.
:func:`apply_masks` / :func:`run_filtering` are that resumable fixpoint
entry point, split so a caller can snapshot the pre-filtering state
between them; :func:`resume_propagation` is the composed convenience
form.

They also spell the vector engine's fused schedule out one step at a
time (a kill per unary vector, the fused mask, the full-width sweep),
which makes them its reference.  The engine folds the unary kills into
one and settles on the block of values still alive
(:func:`~repro.propagation.consistency.settle_alive_block`, which is
:func:`run_filtering` itself when most values are alive): a sweep only
kills, an entry between two live values never changes, and a dead
value's row and column are zero, so the bits and every counter match.
Streams run the engine itself on the prefix-extended template.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.constraints import Constraint, VectorEnv
from repro.network import bitset
from repro.network.network import ConstraintNetwork
from repro.propagation.consistency import consistency_step_vector, run_filtering
from repro.propagation.filtering import FixpointStats, filter_network


def apply_constraint(
    network: ConstraintNetwork,
    constraint: Constraint,
    filter_limit: int | None = None,
) -> int:
    """Propagate one extra constraint over *network*, in place.

    Works for unary and binary constraints; afterwards consistency
    maintenance runs to quiescence (or to *filter_limit* passes).
    Operates directly on the packed ``alive_bits``/``matrix_bits``
    representation when the network is in packed mode — the binary mask
    is symmetrized and packed once, then ANDed word-wide — and falls
    back to the boolean arrays only for a boolean-mode network.

    Returns:
        The number of role values eliminated, including knock-on
        consistency eliminations.
    """
    before = network.alive_count()
    if constraint.is_unary:
        env = VectorEnv(x=network.unary_fields(), y=None, canbe=network.canbe_array)
        permitted = constraint.vector(env)
        network.kill(np.nonzero(network.alive & ~permitted)[0])
    else:
        x_fields, y_fields = network.pair_fields()
        env = VectorEnv(x=x_fields, y=y_fields, canbe=network.canbe_array)
        permitted = constraint.vector(env)
        both = permitted & permitted.T
        if network.packed_active:
            network.apply_pair_mask_bits(bitset.pack_rows(both, network.bit_layout))
        else:
            network.apply_pair_mask(both, presymmetrized=True)
    filter_network(network, consistency_step_vector, limit=filter_limit)
    return before - network.alive_count()


def apply_constraints(
    network: ConstraintNetwork,
    constraints: list[Constraint],
    filter_limit: int | None = None,
) -> int:
    """Propagate a staged constraint set (e.g. a contextual module)."""
    return sum(
        apply_constraint(network, constraint, filter_limit=filter_limit)
        for constraint in constraints
    )


# -- the resumable fixpoint (streaming) --------------------------------------


class MaskStats(NamedTuple):
    """Per-mask elimination counts of one :func:`apply_masks` call."""

    unary_killed: tuple[int, ...]  # role values killed per unary mask, in order
    matrix_entries_zeroed: int  # bits cleared by the fused mask application


def apply_masks(
    network: ConstraintNetwork,
    unary_masks: "tuple[np.ndarray, ...]",
    fused_mask: "np.ndarray | None",
) -> MaskStats:
    """Apply precomputed unary vectors and a fused packed binary mask.

    The masks are applied over the *whole* index space: on a network
    seeded from an embedded prefix state this degenerates to exactly
    the new word's work, because the carried-over bits already satisfy
    every mask (old-value eliminations are prefix-stable), and a
    word-wide AND is how the packed core expresses "only the new
    blocks" anyway.  Unary kills run in constraint order; the fused
    vector engine's single folded kill reaches the same bits.
    """
    killed: list[int] = []
    for permitted in unary_masks:
        dead = np.nonzero(network.alive & ~permitted)[0]
        network.kill(dead)
        killed.append(len(dead))
    zeroed = 0
    if fused_mask is not None:
        zeroed = network.apply_pair_mask_bits(fused_mask)
    return MaskStats(unary_killed=tuple(killed), matrix_entries_zeroed=zeroed)


def resume_propagation(
    network: ConstraintNetwork,
    unary_masks: "tuple[np.ndarray, ...]",
    fused_mask: "np.ndarray | None",
    *,
    filter_limit: int | None = None,
) -> "tuple[MaskStats, FixpointStats]":
    """Masks, then consistency to quiescence: the one-call resume form."""
    mask_stats = apply_masks(network, unary_masks, fused_mask)
    fixpoint = run_filtering(network, filter_limit=filter_limit)
    return mask_stats, fixpoint
