"""The constraint network (CN): nodes, role-value domains and arc matrices.

Representation
--------------

All role values in the sentence are flattened into one global index space
``0..NV-1``; each role owns a contiguous slice of it.  The network then
consists of:

* five integer field arrays (``pos``, ``role`` kind, ``cat``, ``lab``,
  ``mod``) of length ``NV`` — the vector backend's evaluation inputs;
* a packed ``alive`` bit vector (``alive_bits``, one uint64 row) — the
  current domains;
* one bit matrix ``matrix_bits`` of shape ``(NV, n_words)`` packing
  *every* arc matrix along the second axis: the block between roles i
  and j is the rows of i's slice restricted to j's byte-aligned bit
  segment (see :mod:`repro.network.bitset`).  Same-role blocks are
  identically zero and excluded from support checks.

This packed layout is the numpy analogue of the paper's "zero the rows or
columns ... rather than reducing their dimensions" (MasPar design
decision 4): domains never shrink physically, they are masked — and, as
on the MP-1 itself, the mask is bits, not bytes.

Packed vs boolean views
-----------------------

The packed arrays are the network's truth.  ``alive`` / ``matrix`` are
*properties*: in packed mode they return cached, **frozen** boolean
expansions (an engine bug that writes through them fails loudly instead
of silently desynchronizing the bits).  Engines that genuinely mutate
byte-per-bool state — the serial oracle, the PRAM/mesh/MasPar machine
read-backs — call :meth:`materialize_bool` first, which flips the
network into boolean mode (writable arrays are then authoritative);
:meth:`repack` folds the booleans back into bits.  Every query and
mutation helper dispatches on the mode, so both views satisfy one
contract.

Category coherence
------------------

For lexically ambiguous words, role values of the *same word* that assume
*different* categories are marked incompatible at construction time, so a
parse cannot mix "program the noun" with "program the verb".  For
unambiguous words this is a no-op and the network matches the paper's
figures exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NetworkError
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.kernels import bitops
from repro.kernels.backend import KernelBackend, create_backend
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.network.rolevalue import RoleValue

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.template import NetworkTemplate


@dataclass(frozen=True)
class RoleRef:
    """A (word position, role kind) pair naming one role in the CN."""

    pos: int
    role: int

    def index(self, n_roles: int) -> int:
        return (self.pos - 1) * n_roles + self.role


class ConstraintNetwork:
    """A CN for one sentence under one grammar.

    The shape-dependent half of construction (role-value enumeration,
    field arrays, the O(NV^2) base masks) lives in
    :class:`repro.pipeline.template.NetworkTemplate`; ``__init__``
    builds a throwaway template and binds it, while
    :class:`~repro.pipeline.session.ParserSession` reuses cached
    templates so repeated shapes skip that work entirely.  Both paths
    produce bit-identical networks.

    Attributes:
        grammar: the grammar the network was built from.
        sentence: the tokenized input.
        template: the :class:`NetworkTemplate` this network was bound
            from (shared, immutable).
        role_values: all role values, in global-index order.
        bit_layout: the template's :class:`BitLayout`.
        alive_bits: packed (n_words,) alive vector — the current domains.
        matrix_bits: packed (NV, n_words) arc matrices; symmetric as a
            bit relation.
        alive / matrix: boolean views (properties; see module docstring).
    """

    #: Set by NetworkTemplate.fill; declared for type checkers.
    template: "NetworkTemplate"
    role_values: tuple[RoleValue, ...]
    role_slices: tuple[slice, ...]
    bit_layout: BitLayout
    alive_bits: np.ndarray
    matrix_bits: np.ndarray

    #: Mode state (set per instance by NetworkTemplate.fill; class-level
    #: defaults keep partially-constructed instances safe).
    _bool_mode: bool = False
    _alive_cache: "np.ndarray | None" = None
    _matrix_cache: "np.ndarray | None" = None

    #: Kernel backend the packed paths run on; None means the shared
    #: packed core.  Stamped by NetworkTemplate.fill from the session's
    #: backend (a tracer's timing proxy, say).
    kernel_backend: "KernelBackend | None" = None

    def kernels(self) -> KernelBackend:
        """The kernel backend this network's packed operations run on."""
        return self.kernel_backend or create_backend()

    def __init__(self, grammar: CDGGrammar, sentence: Sentence):
        from repro.pipeline.template import NetworkTemplate

        NetworkTemplate.build(grammar, sentence.category_sets).fill(self, sentence)

    # -- packed/boolean mode -----------------------------------------------

    @property
    def packed_active(self) -> bool:
        """True while the packed arrays are authoritative."""
        return not self._bool_mode

    @property
    def alive(self) -> np.ndarray:
        """(NV,) bool domains: frozen expansion (packed) or writable truth."""
        if self._bool_mode:
            return self._alive_cache
        if self._alive_cache is None:
            view = bitset.unpack_rows(self.alive_bits, self.bit_layout)
            view.setflags(write=False)
            self._alive_cache = view
        return self._alive_cache

    @property
    def matrix(self) -> np.ndarray:
        """(NV, NV) bool arc matrices: frozen expansion or writable truth."""
        if self._bool_mode:
            return self._matrix_cache
        if self._matrix_cache is None:
            view = bitset.unpack_rows(self.matrix_bits, self.bit_layout)
            view.setflags(write=False)
            self._matrix_cache = view
        return self._matrix_cache

    def _invalidate_views(self) -> None:
        if not self._bool_mode:
            self._alive_cache = None
            self._matrix_cache = None

    def materialize_bool(self) -> None:
        """Switch to boolean mode: writable byte-per-bool state.

        For the engines whose faithfulness *is* byte-level mutation
        (the serial oracle's explicit loops, the simulated machines'
        host read-backs).  Idempotent.
        """
        if self._bool_mode:
            return
        self._alive_cache = bitset.unpack_rows(self.alive_bits, self.bit_layout)
        self._matrix_cache = bitset.unpack_rows(self.matrix_bits, self.bit_layout)
        self._bool_mode = True

    def repack(self) -> None:
        """Fold boolean-mode state back into the packed arrays.  Idempotent."""
        if not self._bool_mode:
            return
        self.alive_bits = bitset.pack_rows(self._alive_cache, self.bit_layout)
        self.matrix_bits = bitset.pack_rows(self._matrix_cache, self.bit_layout)
        self._bool_mode = False
        self._alive_cache = None
        self._matrix_cache = None

    def state_nbytes(self) -> int:
        """Bytes held by the per-sentence mutable state, as represented now."""
        if self._bool_mode:
            return self._alive_cache.nbytes + self._matrix_cache.nbytes
        return self.alive_bits.nbytes + self.matrix_bits.nbytes

    # -- copying -----------------------------------------------------------

    def clone(self) -> "ConstraintNetwork":
        """Deep copy of the mutable state (alive vector and matrices)."""
        other = object.__new__(ConstraintNetwork)
        other.__dict__.update(self.__dict__)
        other.alive_bits = self.alive_bits.copy()
        other.matrix_bits = self.matrix_bits.copy()
        if self._bool_mode:
            other._alive_cache = self._alive_cache.copy()
            other._matrix_cache = self._matrix_cache.copy()
        else:
            other._alive_cache = None
            other._matrix_cache = None
        return other

    # -- field-array views ---------------------------------------------------

    def unary_fields(self) -> dict[str, np.ndarray]:
        """Field arrays shaped (NV,) for unary vector evaluation."""
        return {
            "pos": self.pos,
            "role": self.role_kind,
            "cat": self.cat,
            "lab": self.lab,
            "mod": self.mod,
        }

    def pair_fields(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Field arrays shaped (NV, 1) and (1, NV) for binary evaluation."""
        x_fields = {k: v[:, None] for k, v in self.unary_fields().items()}
        y_fields = {k: v[None, :] for k, v in self.unary_fields().items()}
        return x_fields, y_fields

    # -- role/domain queries ---------------------------------------------------

    def role_ref(self, index: int) -> RoleRef:
        pos = index // self.n_roles_per_word + 1
        role = index % self.n_roles_per_word
        return RoleRef(pos=pos, role=role)

    def role_of(self, pos: int, role_name: str) -> int:
        """Global role index for (1-based position, role-kind name)."""
        if not 1 <= pos <= self.n_words:
            raise NetworkError(f"position {pos} out of range 1..{self.n_words}")
        role = self.grammar.symbols.roles.code(role_name)
        return (pos - 1) * self.n_roles_per_word + role

    def domain_indices(self, role_index: int) -> np.ndarray:
        """Global indices of the *alive* role values of one role."""
        sl = self.role_slices[role_index]
        return np.nonzero(self.alive[sl])[0] + sl.start

    def domain(self, pos: int, role_name: str) -> set[str]:
        """The alive domain rendered as the paper writes it: {"SUBJ-3", ...}.

        Lexically ambiguous words may carry the same label-modifiee pair
        under several categories; the rendering deduplicates, matching the
        figures.
        """
        indices = self.domain_indices(self.role_of(pos, role_name))
        return {self.role_values[i].pretty(self.grammar.symbols) for i in indices}

    def domain_size(self, role_index: int) -> int:
        sl = self.role_slices[role_index]
        return int(self.alive[sl].sum())

    def domain_sizes(self) -> np.ndarray:
        """Alive count of every role in one pass.

        Packed mode: byte popcounts reduced at the role segment starts.
        Boolean mode: role slices tile ``[0, NV)`` contiguously, so
        summing ``alive`` at the starts of the non-empty slices yields
        the per-role counts.  Structurally empty roles stay at zero.
        """
        counts = np.zeros(self.n_roles, dtype=np.int64)
        template = self.template
        if not template.nonempty_roles.size:
            return counts
        if self._bool_mode:
            counts[template.nonempty_roles] = np.add.reduceat(
                self.alive, template.nonempty_starts, dtype=np.int64
            )
        else:
            counts[template.nonempty_roles] = bitops.segment_counts(
                self.alive_bits, self.bit_layout.seg_byte_starts
            )
        return counts

    def all_domains_nonempty(self) -> bool:
        return bool(self.domain_sizes().all())

    def empty_roles(self) -> list[RoleRef]:
        return [self.role_ref(int(r)) for r in np.nonzero(self.domain_sizes() == 0)[0]]

    def is_ambiguous(self) -> bool:
        """True when some role still holds more than one role value."""
        return bool((self.domain_sizes() > 1).any())

    def alive_count(self) -> int:
        if self._bool_mode:
            return int(self._alive_cache.sum())
        return self.kernels().count_ones(self.alive_bits)

    def fully_alive(self) -> bool:
        """True while no role value has been killed, as after a fresh bind."""
        if self._bool_mode:
            return bool(self._alive_cache.all())
        return bool(np.array_equal(self.alive_bits, self.bit_layout.full_words))

    # -- arc queries -------------------------------------------------------------

    def arc_matrix(self, role_a: int, role_b: int) -> np.ndarray:
        """A copy of the arc matrix block between two roles (rows: role_a)."""
        if role_a == role_b:
            raise NetworkError("no arc connects a role to itself")
        sa, sb = self.role_slices[role_a], self.role_slices[role_b]
        return self.matrix[sa, sb].copy()

    def entry(self, a: int, b: int) -> bool:
        """The packed-matrix entry for a pair of global role-value indices."""
        if self._bool_mode:
            return bool(self._matrix_cache[a, b])
        return bitset.get_bit(self.matrix_bits[a], b, self.bit_layout)

    def support_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(role ids, slice starts) of the non-empty roles, for reduceat.

        Shared with :func:`repro.propagation.consistency.unsupported_vector`;
        precomputed on the template.
        """
        template = self.template
        return template.nonempty_roles, template.nonempty_starts

    def scratch_bits(self) -> np.ndarray:
        """A reusable (NV, n_words) packed buffer (template-owned)."""
        return self.template.scratch_bits()

    # -- mutation helpers ----------------------------------------------------------

    def kill(self, indices: np.ndarray) -> None:
        """Remove role values and zero their rows/columns (design decision 4)."""
        if len(indices) == 0:
            return
        if self._bool_mode:
            self._alive_cache[indices] = False
            self._matrix_cache[indices, :] = False
            self._matrix_cache[:, indices] = False
            return
        bitops.clear_rows_and_columns(
            self.alive_bits,
            self.matrix_bits,
            indices,
            bitset.keep_mask(indices, self.bit_layout),
        )
        self._invalidate_views()

    def apply_pair_mask(self, permitted: np.ndarray, *, presymmetrized: bool = False) -> int:
        """AND a (NV, NV) permitted mask into the packed matrices.

        The mask is applied in both orientations, since a binary
        constraint must hold however the pair is bound to (x, y);
        callers holding an already-symmetrized mask pass
        ``presymmetrized=True`` to skip the transpose AND.  Packed-mode
        callers holding a packed mask (the template's cached masks)
        should use :meth:`apply_pair_mask_bits` directly.

        Returns:
            Number of matrix entries newly zeroed, counted from the
            mask delta in a single pass rather than summing the matrix
            twice.
        """
        if permitted.shape != (self.nv, self.nv):
            raise NetworkError(
                f"pair mask shape {permitted.shape} does not match NV={self.nv}"
            )
        both = permitted if presymmetrized else permitted & permitted.T
        if self._bool_mode:
            m = self._matrix_cache
            newly_zeroed = int(np.count_nonzero(m & ~both))
            m &= both
            return newly_zeroed
        return self.apply_pair_mask_bits(bitset.pack_rows(both, self.bit_layout))

    def apply_pair_mask_bits(self, permitted_bits: np.ndarray) -> int:
        """AND a packed (NV, n_words) permitted mask into the matrices.

        The packed fast path of :meth:`apply_pair_mask`: one word-wide
        AND, with the newly-zeroed count recovered by popcount delta.
        Requires packed mode (boolean-mode engines hold boolean masks).
        """
        if self._bool_mode:
            raise NetworkError("apply_pair_mask_bits on a boolean-mode network")
        if permitted_bits.shape != self.matrix_bits.shape:
            raise NetworkError(
                f"packed pair mask shape {permitted_bits.shape} does not match "
                f"{self.matrix_bits.shape}"
            )
        newly_zeroed = self.kernels().and_accumulate(self.matrix_bits, permitted_bits)
        self._invalidate_views()
        return newly_zeroed

    def apply_row_mask_bits(self, rows: np.ndarray, mask_bits: np.ndarray) -> int:
        """AND a packed ``(len(rows), n_words)`` mask into the given rows.

        The fused schedule's apply: *rows* are the unary survivors and
        *mask_bits* their rows of the fused mask.  Every other row is
        already zero, so this equals ANDing the full-width mask.  One
        ``and_accumulate`` over the gathered rows; returns the exact
        number of entries newly zeroed.
        """
        if self._bool_mode:
            raise NetworkError("apply_row_mask_bits on a boolean-mode network")
        if mask_bits.shape != (len(rows), self.matrix_bits.shape[1]):
            raise NetworkError(
                f"packed row mask shape {mask_bits.shape} does not match "
                f"{(len(rows), self.matrix_bits.shape[1])}"
            )
        block = self.matrix_bits[rows]
        newly_zeroed = self.kernels().and_accumulate(block, mask_bits)
        self.matrix_bits[rows] = block
        self._invalidate_views()
        return newly_zeroed

    # -- rendering -------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line summary of the CN state (one line per role)."""
        lines = [
            f"CN for {' '.join(self.sentence.words)!r}: n={self.n_words}, "
            f"NV={self.nv}, alive={self.alive_count()}"
        ]
        for pos in range(1, self.n_words + 1):
            word = self.sentence.words[pos - 1]
            for role in range(self.n_roles_per_word):
                role_name = self.grammar.symbols.roles.name(role)
                values = sorted(self.domain(pos, role_name))
                lines.append(f"  {word} [{pos}] {role_name}: {{{', '.join(values)}}}")
        return "\n".join(lines)
