"""Synthetic constraint networks: hand-built domains and arc matrices.

Consistency maintenance and filtering only need the *support structure*
of a network — roles, domains, the packed matrix — not a grammar or a
sentence.  :class:`SyntheticNetwork` provides exactly that surface
(duck-typing the relevant subset of
:class:`~repro.network.network.ConstraintNetwork`), which is what the
Monotone-Circuit-Value reduction of :mod:`repro.reductions` builds on,
and what tests use to construct adversarial support patterns directly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NetworkError


class SyntheticNetwork:
    """A bare support structure: roles, role values, one packed matrix.

    Args:
        domain_sizes: number of role values in each role; role values are
            numbered globally in role order.

    The matrix starts all-ones across distinct roles (and all-zero within
    a role), like a real CN before any constraint is propagated; shape it
    with :meth:`forbid` / :meth:`require_support_only_from`.
    """

    def __init__(self, domain_sizes: list[int]):
        if not domain_sizes or any(size <= 0 for size in domain_sizes):
            raise NetworkError("every role needs at least one role value")
        self.n_roles = len(domain_sizes)
        self.nv = int(sum(domain_sizes))
        starts = np.concatenate(([0], np.cumsum(domain_sizes)))
        self.role_slices = tuple(
            slice(int(starts[i]), int(starts[i + 1])) for i in range(self.n_roles)
        )
        self.role_index = np.repeat(np.arange(self.n_roles, dtype=np.int32), domain_sizes)
        self.alive = np.ones(self.nv, dtype=bool)
        self.matrix = self.role_index[:, None] != self.role_index[None, :]

    # -- the surface consistency/filtering needs -------------------------

    def support_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(role ids, slice starts) for segmented support ORs.

        Domain sizes are validated positive, so every role has a
        segment (same contract as the template-backed networks).
        """
        roles = np.arange(self.n_roles, dtype=np.intp)
        starts = np.fromiter(
            (sl.start for sl in self.role_slices), dtype=np.intp, count=self.n_roles
        )
        return roles, starts

    def kill(self, indices) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return
        self.alive[indices] = False
        self.matrix[indices, :] = False
        self.matrix[:, indices] = False

    def domain_size(self, role: int) -> int:
        sl = self.role_slices[role]
        return int(self.alive[sl].sum())

    def all_domains_nonempty(self) -> bool:
        return all(self.domain_size(r) > 0 for r in range(self.n_roles))

    # -- construction helpers ------------------------------------------------

    def value(self, role: int, offset: int) -> int:
        """Global index of the offset-th role value of *role*."""
        sl = self.role_slices[role]
        index = sl.start + offset
        if not sl.start <= index < sl.stop:
            raise NetworkError(f"role {role} has no value #{offset}")
        return index

    def forbid(self, a: int, b: int) -> None:
        """Zero one pair (both orientations)."""
        if self.role_index[a] == self.role_index[b]:
            raise NetworkError("cannot forbid a same-role pair (never connected)")
        self.matrix[a, b] = False
        self.matrix[b, a] = False

    def require_support_only_from(self, value: int, role: int, supporters: list[int]) -> None:
        """Make *value*'s support in *role* come only from *supporters*."""
        sl = self.role_slices[role]
        self.matrix[value, sl] = False
        self.matrix[sl, value] = False
        for supporter in supporters:
            if not sl.start <= supporter < sl.stop:
                raise NetworkError(f"supporter {supporter} is not in role {role}")
            self.matrix[value, supporter] = True
            self.matrix[supporter, value] = True
