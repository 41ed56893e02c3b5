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
  sweep reads.  Which kernels run depends on the network's backend
  (:mod:`repro.kernels.backend`): ``packed`` does a word-wide AND plus
  a byte ``reduceat``; ``native`` runs the same masked segmented OR in
  C.  On a boolean-mode network it is the original
  ``logical_or.reduceat`` over bytes.
* :func:`unsupported_serial` — explicit loops over arcs and rows, used by
  the faithful sequential engine and for cross-checking.

Both return an ``np.ndarray`` of *all* currently unsupported role
values (one contract); callers kill them simultaneously, which matches
the parallel semantics and keeps every engine on the same trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.network.network import ConstraintNetwork


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
    # OR over the alive-masked matrix; the scratch buffer is reused
    # across sweeps (and, via the template, across sentences).
    masked = np.logical_and(net.matrix, alive[None, :], out=net.scratch_matrix())
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
    # call: alive masking plus the segmented OR (or its BMM recast,
    # depending on the backend); the packed scratch buffer is reused
    # across sweeps (and, via the template, across sentences).
    has = net.kernels().support_any(
        net.matrix_bits,
        net.alive_bits,
        net.bit_layout.seg_byte_starts,
        out=net.scratch_bits(),
    )
    has[np.arange(net.nv), net.role_index] = True
    return np.nonzero(alive & ~has.all(axis=1))[0]


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
