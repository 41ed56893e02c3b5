"""Incremental constraint propagation over an existing network.

Paper section 1.5: "Since CNs compactly store multiple parses and such
ambiguity is easy to detect, additional constraints can be applied as
needed to further refine the analysis of an ambiguous sentence" — the
core-then-contextual constraint staging of the authors' spoken-language
programme.  :func:`apply_constraint` is that operation: propagate one
extra constraint (not necessarily from the grammar) over a settled CN
and restore local consistency.
"""

from __future__ import annotations

import numpy as np

from repro.constraints import Constraint, VectorEnv
from repro.network import bitset
from repro.network.network import ConstraintNetwork
from repro.propagation.consistency import consistency_step_vector
from repro.propagation.filtering import filter_network


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
