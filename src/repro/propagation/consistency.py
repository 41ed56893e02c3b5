"""Consistency maintenance (paper section 1.4).

A role value *a* is still supported after constraint propagation iff, for
every other role j, the row of the arc matrix between role(a) and j
indexed by *a* contains at least one 1 over j's alive values — the
logical OR along rows followed by the logical AND across arcs that
Figures 10 and 12 illustrate.  Unsupported role values are removed, and
their rows/columns zeroed everywhere.

Two implementations with identical semantics:

* :func:`unsupported_vector` — one numpy pass over whichever view the
  network currently holds.  On a packed network (the default) the sweep
  is the kernel backend's ``support_any``: mask the bit matrix with the
  packed alive vector, then OR-reduce each row per role segment — the
  same OR-then-AND dataflow the MasPar performs with
  ``scanOr``/``scanAnd``, touching 1/8th of the memory the boolean
  sweep reads.  The packed kernel core (:mod:`repro.kernels.backend`)
  does it as a word-wide AND plus a byte ``reduceat``.  On a
  boolean-mode network it is the original ``logical_or.reduceat`` over
  bytes.
* :func:`unsupported_serial` — explicit loops over arcs and rows, used by
  the faithful sequential engine and for cross-checking.

Both return an ``np.ndarray`` of *all* currently unsupported role
values (one contract); callers kill them simultaneously, which matches
the parallel semantics and keeps every engine on the same trajectory.

:func:`settle_alive_block` runs that same sweep to quiescence on the
alive values only.  A sweep only ever kills values, and the entry
between two values that are both still alive never changes, so the
K x K block of the alive values' rows and columns carries every bit a
full-width sweep reads; the dead values' rows and columns are zero
anyway.  The MP-1 zeroes rows and columns in place (design decision
4), where the operand size is fixed by the PE array; on a CPU the
operand size is the cost, so each pass sweeps K rows instead of NV.
The network itself keeps decision 4's form: the union of the block's
kills reaches it as one
:meth:`~repro.network.network.ConstraintNetwork.kill`.  When most
values are still alive the block saves less than it costs to set up,
and :func:`run_filtering`, the full-width sweep, settles instead.
"""

from __future__ import annotations

import numpy as np

from repro.network import bitset
from repro.network.network import ConstraintNetwork
from repro.propagation.filtering import FixpointStats, filter_network


def unsupported_vector(net: ConstraintNetwork) -> np.ndarray:
    """Global indices of alive role values that currently lack support."""
    if getattr(net, "packed_active", False):
        return _unsupported_packed(net)
    alive = net.alive
    roles, starts = net.support_segments()
    if len(roles) < net.n_roles:
        # A role with a structurally empty domain supports nothing:
        # every alive role value is unsupported.
        return np.nonzero(alive)[0]
    # has[a, j] = does a keep an alive partner in role j?  One segmented
    # OR over the alive-masked matrix.
    masked = net.matrix & alive[None, :]
    has = np.logical_or.reduceat(masked, starts, axis=1)
    # a's own role is exempt ("every *other* role").
    has[np.arange(net.nv), net.role_index] = True
    return np.nonzero(alive & ~has.all(axis=1))[0]


def _unsupported_packed(net: ConstraintNetwork) -> np.ndarray:
    """The packed-word sweep behind :func:`unsupported_vector`."""
    alive = net.alive  # frozen boolean view, for the final index extraction
    roles, _ = net.support_segments()
    if len(roles) < net.n_roles:
        return np.nonzero(alive)[0]
    # has[a, j] = does a keep an alive partner in role j?  One kernel
    # call: alive masking plus the segmented OR; the packed scratch
    # buffer is reused across sweeps (and, via the template, across
    # sentences).
    has = net.kernels().support_any(
        net.matrix_bits,
        net.alive_bits,
        net.bit_layout.seg_byte_starts,
        out=net.scratch_bits(),
    )
    has[np.arange(net.nv), net.role_index] = True
    return np.nonzero(alive & ~has.all(axis=1))[0]


#: The alive share K/NV above which :func:`settle_alive_block` sweeps
#: full width.  Timed on random grammars (NV 60-450) and english
#: sentences, packed backend, on a 2-CPU x86_64 host: the block
#: fixpoint's median cost against the full-width one is 0.4 below 0.2,
#: 0.84 at 0.6-0.7, 1.0 at 0.7-0.8 and 1.09 above 0.9, since its set-up
#: and final kill no longer pay for themselves.
BLOCK_MAX_ALIVE_SHARE = 0.75


def settle_alive_block(net: ConstraintNetwork) -> FixpointStats:
    """Consistency maintenance to quiescence over the alive block only.

    Takes the K alive values' rows of the packed matrix and runs the
    sweep of :func:`unsupported_vector` on them, with a private copy of
    the alive bits, until a pass kills nothing; then kills the union of
    its eliminations in *net* at once.  Each pass is one
    ``support_any`` call over K rows instead of NV, and no pass touches
    the network.  Every column outside the K alive values is zero, and
    the block's own kills are masked by the private alive bits, so the
    call reads exactly the K x K block.  The settled network, the kill
    set of every pass and the counters are identical to
    :func:`run_filtering` (see the module docstring), and passes are
    counted by the same :func:`filter_network` loop.  A role with no alive value, whether
    structurally empty or emptied by a pass, leaves every other alive
    value unsupported, as in the full-width sweep.

    Above :data:`BLOCK_MAX_ALIVE_SHARE` this is :func:`run_filtering`.
    """
    alive = np.flatnonzero(net.alive)
    if alive.size > BLOCK_MAX_ALIVE_SHARE * net.nv:
        return run_filtering(net)
    layout = net.bit_layout
    rows = net.matrix_bits[alive]
    live_bits = net.alive_bits.copy()
    live = np.ones(alive.size, dtype=bool)
    own_role = (np.arange(alive.size), net.role_index[alive])
    roles, _ = net.support_segments()
    every_role = len(roles) == net.n_roles
    kernels = net.kernels()
    passes = 0

    def block_step(_net: ConstraintNetwork) -> int:
        nonlocal passes
        passes += 1
        if every_role:
            has = kernels.support_any(rows, live_bits, layout.seg_byte_starts)
            has[own_role] = True
            dead = live & ~has.all(axis=1)
        else:
            dead = live.copy()
        killed = int(np.count_nonzero(dead))
        if killed:
            live[dead] = False
            bitset.clear_members(live_bits, alive[dead], layout)
        return killed

    iterations = filter_network(net, block_step)
    dead = alive[~live]
    net.kill(dead)
    return FixpointStats(
        role_values_killed=dead.size,
        consistency_passes=passes,
        filtering_iterations=iterations,
    )


def run_filtering(
    network: ConstraintNetwork, *, filter_limit: int | None = None
) -> FixpointStats:
    """Run consistency maintenance to quiescence, with engine-grade counts.

    The full-width sweep: :func:`consistency_step_vector` under
    :func:`~repro.propagation.filtering.filter_network`.  The pass
    accounting matches :class:`~repro.engines.vector.VectorEngine`
    exactly (every sweep counts as a pass, including the final one that
    eliminates nothing; ``filtering_iterations`` counts only productive
    sweeps).
    """
    kills = 0
    passes = 0

    def counting_step(net: ConstraintNetwork) -> int:
        nonlocal kills, passes
        step_kills = consistency_step_vector(net)
        kills += step_kills
        passes += 1
        return step_kills

    iterations = filter_network(network, counting_step, limit=filter_limit)
    return FixpointStats(
        role_values_killed=kills,
        consistency_passes=passes,
        filtering_iterations=iterations,
    )


def unsupported_serial(net: ConstraintNetwork) -> np.ndarray:
    """Loop implementation of :func:`unsupported_vector` (same result)."""
    out: list[int] = []
    alive_by_role = [
        [b for b in range(sl.start, sl.stop) if net.alive[b]] for sl in net.role_slices
    ]
    for a in range(net.nv):
        if not net.alive[a]:
            continue
        role_a = int(net.role_index[a])
        for j in range(net.n_roles):
            if j == role_a:
                continue
            # OR along the row of the arc matrix between role_a and j.
            if not any(net.matrix[a, b] for b in alive_by_role[j]):
                out.append(a)
                break
    return np.asarray(out, dtype=np.int64)


def consistency_step_vector(net: ConstraintNetwork) -> int:
    """One parallel consistency-maintenance step; returns #role values killed."""
    dead = unsupported_vector(net)
    net.kill(dead)
    return len(dead)


def consistency_step_serial(net: ConstraintNetwork) -> int:
    """One sequential consistency-maintenance step (same semantics)."""
    dead = unsupported_serial(net)
    net.kill(dead)
    return len(dead)
