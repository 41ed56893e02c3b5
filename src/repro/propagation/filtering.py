"""Filtering: iterate consistency maintenance to a fixpoint.

"A single application of consistency maintenance may be insufficient ...
Filtering continues until there are no role values indexing matrix rows
or columns containing only zeros" (section 1.4).  The paper notes the
worst case is sequential (they reduce the Monotone Circuit Value Problem
to it) but observes that real grammars settle in "typically fewer than
10" iterations, which is why the MasPar implementation bounds the
iteration count (design decision 5).  Both behaviours are available here
via *limit*.

The driver is representation-agnostic: the *step* callables from
:mod:`repro.propagation.consistency` dispatch per network on the packed
bit matrices (word-wide AND + segmented byte OR) or the boolean view,
so one fixpoint loop serves both execution cores.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.network.network import ConstraintNetwork

ConsistencyStep = Callable[[ConstraintNetwork], int]


class FixpointStats(NamedTuple):
    """Counters of one consistency fixpoint, counted as the engines count them."""

    role_values_killed: int
    consistency_passes: int  # sweeps executed, including the final quiet one
    filtering_iterations: int  # sweeps that eliminated something


def filter_network(
    net: ConstraintNetwork,
    step: ConsistencyStep,
    limit: int | None = None,
) -> int:
    """Run consistency steps until quiescent (or until *limit* steps).

    Args:
        net: the network to filter, mutated in place.
        step: one consistency-maintenance pass returning #killed.
        limit: maximum number of passes; ``None`` runs to the fixpoint.

    Returns:
        The number of passes that actually removed something.
    """
    iterations = 0
    while limit is None or iterations < limit:
        killed = step(net)
        if killed == 0:
            break
        iterations += 1
    return iterations
