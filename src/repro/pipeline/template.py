"""The bind layer: per-sentence-shape network templates.

Everything :class:`~repro.network.network.ConstraintNetwork` used to
compute in ``__init__`` depends only on the *shape* of the sentence —
its length and per-position category sets — never on the surface words:
the role-value enumeration, the field arrays, the O(NV^2) same-role and
category-clash base masks, and the category tables.  A
:class:`NetworkTemplate` computes all of that once per
``(grammar, n, category-signature)`` and stamps out networks with
:meth:`bind`, which only allocates the two genuinely per-sentence
arrays (a fresh ``alive`` vector and a copy of the base matrix).

Templates are what :class:`~repro.pipeline.session.ParserSession`
caches behind its bounded LRU; they also own the lazily-computed
artifacts the execute layer shares across every network bound from the
same shape:

* the symmetrized vector-evaluation masks of every constraint (a pure
  function of the field arrays — the single biggest per-parse cost);
* the consistency-maintenance segment tables (role starts for
  ``reduceat``);
* a packed ``(NV, n_words)`` scratch buffer reused by consistency
  maintenance.

Shared arrays are frozen (``writeable=False``) so an engine bug that
tried to mutate template state across sentences fails loudly instead of
corrupting later parses.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.errors import NetworkError
from repro.grammar.grammar import CDGGrammar, Sentence
from repro.network import bitset
from repro.network.bitset import BitLayout
from repro.network.rolevalue import RoleValue, enumerate_role_values
from repro.pipeline.compiled import CompiledGrammar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.network.network import ConstraintNetwork

#: Cache key of a sentence shape under one grammar.
ShapeKey = tuple[frozenset[int], ...]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class UnaryFold(NamedTuple):
    """The per-constraint unary kill rounds folded into one kill."""

    dead: np.ndarray  # global indices the AND of every unary vector rejects
    unary_checks: int  # alive values the rounds would check, from a fresh bind


class VectorMasks:
    """Per-template constraint evaluations for the vector execute path.

    ``unary[i]`` is the permitted ``(NV,)`` bool vector of the i-th
    unary constraint; ``binary[i]`` the orientation-symmetrized
    permitted mask of the i-th binary constraint (already
    ``permitted & permitted.T``), packed as an ``(NV, n_words)`` uint64
    array ready to AND into the network's bit matrices — ~8x smaller
    per cache entry than a boolean mask.

    ``fused`` is the word-wide AND of every binary mask (``None`` when
    the grammar has no binary constraints).
    Maruyama's eliminations are monotone and order-independent up to the
    fixpoint, so the no-trace fast path may apply this one combined mask
    and run a single consistency fixpoint instead of interleaving
    ``k_b`` mask applications with ``k_b`` full sweeps — bit-identical
    at the fixpoint, ~``k_b``x fewer sweeps.

    Prefix-extended templates build ``unary`` and ``fused`` eagerly but
    defer the per-constraint ``binary`` tuple behind *binary_thunk*: the
    fused fast path never reads it, and materializing ``k_b`` full
    ``(NV, NV)`` masks is the dominant cost of an extension step.  The
    first ``binary`` access (the per-constraint schedule, the process
    store, introspection) evaluates and memoizes them.

    ``unary_fold`` is the fused path's unary phase: one dead set plus
    the counter total, derived lazily from ``unary`` alone.
    """

    __slots__ = ("unary", "_binary", "_binary_thunk", "fused", "_unary_fold")

    def __init__(
        self,
        unary: tuple[np.ndarray, ...],
        binary: "tuple[np.ndarray, ...] | None",
        fused: np.ndarray | None = None,
        binary_thunk: "Callable[[], tuple[np.ndarray, ...]] | None" = None,
    ):
        if binary is None and binary_thunk is None:
            raise ValueError("deferred binary masks need a binary_thunk")
        self.unary = unary
        self._binary = binary
        self._binary_thunk = binary_thunk
        self.fused = fused
        self._unary_fold: UnaryFold | None = None

    @property
    def unary_fold(self) -> UnaryFold:
        """The unary rounds of a fresh bind as one dead set (lazy, frozen).

        Every bind starts fully alive, so the per-constraint rounds end
        in a template constant: the values the AND of ``unary`` rejects,
        and a ``unary_checks`` total that sums the alive count each
        round starts from.  Killing the set at once leaves the same
        bits, since a kill only zeroes a value's row and column.
        """
        if self._unary_fold is None:
            alive = np.ones_like(self.unary[0]) if self.unary else np.ones(0, dtype=bool)
            checks = 0
            for permitted in self.unary:
                checks += int(np.count_nonzero(alive))
                alive &= permitted
            self._unary_fold = UnaryFold(_frozen(np.flatnonzero(~alive)), checks)
        return self._unary_fold

    @property
    def unary_folded(self) -> bool:
        """True once ``unary_fold`` has been computed."""
        return self._unary_fold is not None

    @property
    def binary(self) -> tuple[np.ndarray, ...]:
        if self._binary is None:
            self._binary = tuple(self._binary_thunk())  # type: ignore[misc]
            self._binary_thunk = None
        return self._binary

    @property
    def binary_materialized(self) -> bool:
        """True once ``binary`` has been (or was eagerly) computed."""
        return self._binary is not None


class NetworkTemplate:
    """The cacheable per-shape half of a constraint network."""

    #: Kernel backend stamped onto every network bound from this
    #: template (see :mod:`repro.kernels.backend`).  A ParserSession
    #: sets it to its own backend on every lookup; None means bound
    #: networks run the shared packed core.
    kernel_backend = None

    def __init__(
        self,
        grammar: CDGGrammar,
        category_sets: ShapeKey,
        *,
        base_bits: np.ndarray | None = None,
        prefix: "NetworkTemplate | None" = None,
    ):
        if prefix is not None and base_bits is not None:
            raise NetworkError("pass either a prefix template or precomputed base_bits")
        self.grammar = grammar
        self.category_sets: ShapeKey = tuple(category_sets)
        n = len(self.category_sets)
        q = grammar.n_roles
        self.n_words = n
        self.n_roles_per_word = q
        self.n_roles = n * q

        role_values: list[RoleValue] = []
        slices: list[slice] = []
        for pos in range(1, n + 1):
            cats = self.category_sets[pos - 1]
            for role in range(q):
                start = len(role_values)
                role_values.extend(
                    enumerate_role_values(pos, role, cats, grammar.allowed_labels, n)
                )
                slices.append(slice(start, len(role_values)))
        if not role_values:
            raise NetworkError("constraint network has no role values")

        self.role_values: tuple[RoleValue, ...] = tuple(role_values)
        self.role_slices: tuple[slice, ...] = tuple(slices)
        nv = len(role_values)
        self.nv = nv

        # Field arrays (the vector backend's inputs), shared read-only
        # by every network bound from this template.
        self.pos = _frozen(np.fromiter((rv.pos for rv in role_values), dtype=np.int32, count=nv))
        self.role_kind = _frozen(
            np.fromiter((rv.role for rv in role_values), dtype=np.int32, count=nv)
        )
        self.cat = _frozen(np.fromiter((rv.cat for rv in role_values), dtype=np.int32, count=nv))
        self.lab = _frozen(np.fromiter((rv.lab for rv in role_values), dtype=np.int32, count=nv))
        self.mod = _frozen(np.fromiter((rv.mod for rv in role_values), dtype=np.int32, count=nv))
        self.role_index = _frozen((self.pos - 1) * q + self.role_kind)

        # The O(NV^2) base mask: all-ones across distinct roles
        # ("initially, all entries in the matrices are set to 1"),
        # minus category coherence for lexically ambiguous words.
        # Stored packed (the boolean expansion is a lazy property), so a
        # cached template carries NV * row_bytes, not NV^2, bytes.  A
        # caller holding an already-packed copy — a worker process
        # attaching a SharedTemplateStore block — passes it in and skips
        # the quadratic recompute; everything above this point is O(NV).
        self.bit_layout = (
            BitLayout(self.role_slices)
            if prefix is None
            else prefix.bit_layout.extend(self.role_slices)
        )
        self.prefix_map: np.ndarray | None = None
        self.prefix_new: np.ndarray | None = None
        if prefix is not None:
            self._extend_maps(prefix)
        if base_bits is None:
            same_role = self.role_index[:, None] == self.role_index[None, :]
            base = ~same_role
            same_word = self.pos[:, None] == self.pos[None, :]
            cat_clash = same_word & (self.cat[:, None] != self.cat[None, :])
            base &= ~cat_clash
            base_bits = bitset.pack_rows(base, self.bit_layout)
        elif base_bits.shape != (nv, self.bit_layout.n_words):
            raise NetworkError(
                f"precomputed base_bits shape {base_bits.shape} does not match "
                f"template shape {(nv, self.bit_layout.n_words)}"
            )
        self.base_bits = _frozen(base_bits)
        self._base_bool: np.ndarray | None = None

        # Category tables for constraint evaluation (word-independent:
        # they are a function of the category sets alone).
        canbe = np.zeros((n + 1, len(grammar.symbols.categories)), dtype=bool)
        for position, cats in enumerate(self.category_sets, start=1):
            for code in cats:
                canbe[position, code] = True
        self.canbe_array = _frozen(canbe)
        self.canbe_sets: tuple[frozenset[int], ...] = (frozenset(),) + self.category_sets

        # Segment tables for reduceat-based domain counts and support
        # checks.  Roles with structurally empty domains (no admissible
        # label for any category) get no segment; consumers must treat
        # them as never supported / always empty.
        lengths = np.fromiter(
            (sl.stop - sl.start for sl in self.role_slices), dtype=np.intp, count=self.n_roles
        )
        starts = np.fromiter(
            (sl.start for sl in self.role_slices), dtype=np.intp, count=self.n_roles
        )
        nonempty = lengths > 0
        self.nonempty_roles = _frozen(np.nonzero(nonempty)[0])
        self.nonempty_starts = _frozen(starts[nonempty])
        self.has_empty_roles = bool((~nonempty).any())

        # Lazy artifacts.
        self._masks: VectorMasks | None = None
        self._masks_for: CompiledGrammar | None = None
        self._scratch_bits: np.ndarray | None = None
        self._nbytes_cache: "tuple[tuple, int] | None" = None

    @property
    def base_matrix(self) -> np.ndarray:
        """The boolean expansion of ``base_bits`` (lazy, frozen, cached)."""
        if self._base_bool is None:
            self._base_bool = _frozen(bitset.unpack_rows(self.base_bits, self.bit_layout))
        return self._base_bool

    # -- cache key ---------------------------------------------------------

    @classmethod
    def build(cls, grammar: CDGGrammar, category_sets: ShapeKey) -> "NetworkTemplate":
        return cls(grammar, category_sets)

    @classmethod
    def from_shared(
        cls,
        grammar: CDGGrammar,
        category_sets: ShapeKey,
        compiled: CompiledGrammar,
        *,
        base_bits: np.ndarray,
        masks: VectorMasks,
    ) -> "NetworkTemplate":
        """Rebuild a template around arrays attached from shared memory.

        The cheap O(NV) skeleton (role-value enumeration, field arrays,
        category and segment tables) is recomputed locally; the O(NV^2)
        ``base_bits`` and the constraint masks — the expensive artifacts
        — come in as read-only views over a
        :class:`~repro.parallel.shared.SharedTemplateStore` block, so a
        worker process never recomputes or copies them.
        """
        template = cls(grammar, category_sets, base_bits=base_bits)
        template._masks = masks
        template._masks_for = compiled
        return template

    @property
    def key(self) -> ShapeKey:
        """The per-grammar cache key: the sentence's category signature."""
        return self.category_sets

    # -- prefix extension (the streaming build path) -----------------------

    def _extend_maps(self, prefix: "NetworkTemplate") -> None:
        """Carry the old-to-new index maps of a one-word extension.

        Extending the sentence interleaves fresh role values between the
        surviving ones: each old role gains its ``mod = n`` candidates
        and the new word adds whole roles.  Enumeration is ordered by
        (position, role, label, mod), so the survivors are exactly the
        values with ``pos != n and mod != n``, in preserved order — two
        vectorized comparisons, no per-value hashing.  The maps are
        stored as ``prefix_map`` / ``prefix_new`` for mask extension.

        The base matrix is *not* scattered from the prefix: it is pure
        position/role arithmetic, and at sentence-sized NV the
        vectorized formula is cheaper than moving the old packed block.
        The expensive carried artifacts are the constraint masks
        (:meth:`_extend_masks`).
        """
        if prefix.grammar is not self.grammar:
            raise NetworkError("prefix template was built under a different grammar")
        if prefix.category_sets != self.category_sets[:-1]:
            raise NetworkError(
                "prefix template shape is not a one-word prefix of this shape "
                f"(n={prefix.n_words} vs n={self.n_words})"
            )
        old = (self.pos != self.n_words) & (self.mod != self.n_words)
        idx_map = np.nonzero(old)[0]
        if idx_map.size != prefix.nv:
            raise NetworkError(
                "extension did not preserve the prefix's role values "
                f"({idx_map.size} surviving vs {prefix.nv} expected)"
            )
        self.prefix_map = _frozen(idx_map)
        self.prefix_new = _frozen(np.nonzero(~old)[0])

    def extend(
        self, category_set: frozenset[int], *, compiled: CompiledGrammar | None = None
    ) -> "NetworkTemplate":
        """The (n+1)-word template sharing this n-word template's work.

        When *compiled* is given and this template has already evaluated
        its vector masks for it, the unary vectors and the fused binary
        AND are extended instead of re-evaluated: old entries are
        scattered through the preserved-order index maps, and only the
        cross strips where at least one side is a new role value are
        evaluated.  The per-constraint binary masks stay deferred — the
        fused fast path never reads them, and a non-fused consumer
        triggers a full evaluation on first access.  Nothing reachable
        from the predecessor is mutated — extension only reads frozen
        state.
        """
        extended = NetworkTemplate(
            self.grammar,
            self.category_sets + (frozenset(category_set),),
            prefix=self,
        )
        if compiled is not None and self._masks is not None and self._masks_for is compiled:
            extended._extend_masks(self, compiled)
        return extended

    #: Below this many *saved* pair evaluations an incremental mask
    #: extension loses to the plain full evaluation: the scatter
    #: bookkeeping (index maps, strip assigns, fused unpack/repack) has
    #: a fixed cost that small prefixes never amortize.  Expressed in
    #: matrix elements; tuned on the english grammar's n <= 10 sweep.
    _EXTEND_MIN_SAVED_PAIRS = 16384

    def _extend_masks(self, prefix: "NetworkTemplate", compiled: CompiledGrammar) -> None:
        """Extend *prefix*'s cached vector masks into this template.

        Constraint evaluation is elementwise over the field arrays and
        the category table, and the old values' fields (and ``canbe``
        rows) are unchanged by extension, so the prefix's evaluations
        are scattered verbatim; only the rectangular blocks where at
        least one side is a new role value are evaluated.  Bit-identical
        to :meth:`vector_masks` from scratch — a test invariant.

        Small shapes fall back to the plain full evaluation: the cross
        region (``2 * new * NV`` of ``NV^2`` pairs) must undercut the
        full matrix by enough to pay for the scatter bookkeeping.  The
        template is still a prefix *extension* either way — the index
        maps are untouched; only the mask computation strategy switches.
        """
        from repro.constraints.vector import VectorEnv

        idx_map = self.prefix_map
        new_idx = self.prefix_new
        saved = self.nv * self.nv - 2 * new_idx.size * self.nv
        if saved < self._EXTEND_MIN_SAVED_PAIRS:
            self._compute_masks_full(compiled)
            return

        old_masks = prefix._masks
        fields = self._field_arrays()
        new_fields = {k: v[new_idx] for k, v in fields.items()}
        unary_env = VectorEnv(x=new_fields, y=None, canbe=self.canbe_array)
        unary: list[np.ndarray] = []
        if compiled.unary:
            # One batched scatter for every unary constraint: the old
            # vectors land through idx_map, only new values are evaluated.
            unary_all = np.zeros((len(compiled.unary), self.nv), dtype=bool)
            unary_all[:, idx_map] = old_masks.unary
            for i, cc in enumerate(compiled.unary):
                unary_all[i, new_idx] = np.broadcast_to(cc.vector(unary_env), new_idx.shape)
            unary = [_frozen(row) for row in unary_all]

        # The new entries of a symmetrized mask (permitted & permitted.T)
        # need both orientations of the cross: rows = (new x, all y) and
        # the transpose of (all x, new y).  The sym-AND distributes over
        # the per-constraint fold — AND_c [c(i,j) & c(j,i)] equals
        # [AND_c c(i,j)] & [AND_c c(j,i)] — so each orientation is
        # folded separately and combined once; the column strip then
        # only needs the *old* x side (the prefix's own field arrays,
        # direct views), because the new-by-new corner is already in the
        # row fold.  Rectangular broadcast envs keep the field arrays as
        # cheap views — no O(new * NV) gathers.
        row_env = VectorEnv(
            x={k: v[:, None] for k, v in new_fields.items()},
            y={k: v[None, :] for k, v in fields.items()},
            canbe=self.canbe_array,
        )
        col_env = VectorEnv(
            x={k: v[:, None] for k, v in prefix._field_arrays().items()},
            y={k: v[None, :] for k, v in new_fields.items()},
            canbe=self.canbe_array,
        )
        shape = (new_idx.size, self.nv)
        old_shape = (idx_map.size, new_idx.size)
        fused: np.ndarray | None = None
        binary: tuple[np.ndarray, ...] | None = ()
        binary_thunk = None
        if compiled.binary:
            # Only the FUSED mask is materialized in the extended
            # layout: the per-constraint cross strips are AND-folded as
            # they are evaluated, the prefix's fused block is scattered
            # through idx_map, and one pack covers the result.  The
            # per-constraint tuple stays deferred (``binary_thunk``) —
            # scattering k_b full (NV, NV) masks costs more than the
            # whole rest of the extension, and the fused fast path
            # never reads them.
            rows_acc: np.ndarray | None = None
            cols_acc: np.ndarray | None = None
            for cc in compiled.binary:
                rows = np.broadcast_to(cc.vector(row_env), shape)
                cols = np.broadcast_to(cc.vector(col_env), old_shape)
                if rows_acc is None:
                    rows_acc, cols_acc = rows.copy(), cols.copy()
                else:
                    rows_acc &= rows
                    cols_acc &= cols
            acc = rows_acc
            corner = acc[:, new_idx]  # fancy index: a copy of the pure row fold
            acc[:, idx_map] &= cols_acc.T
            acc[:, new_idx] = corner & corner.T
            sym = np.zeros((self.nv, self.nv), dtype=bool)
            sym[np.ix_(idx_map, idx_map)] = bitset.unpack_rows(
                old_masks.fused, prefix.bit_layout
            )
            sym[new_idx, :] = acc
            sym[:, new_idx] = acc.T
            fused = _frozen(bitset.pack_rows(sym, self.bit_layout))
            binary = None
            binary_thunk = functools.partial(self._binary_masks_packed, compiled)
        self._masks = VectorMasks(
            unary=tuple(unary),
            binary=binary,
            fused=fused,
            binary_thunk=binary_thunk,
        )
        self._masks_for = compiled

    # -- binding -----------------------------------------------------------

    def bind(self, sentence: Sentence) -> "ConstraintNetwork":
        """Stamp out a fresh network for *sentence* from this template."""
        from repro.network.network import ConstraintNetwork

        network = object.__new__(ConstraintNetwork)
        self.fill(network, sentence)
        return network

    def fill(self, network: "ConstraintNetwork", sentence: Sentence) -> None:
        """Populate *network* in place (the shared ``__init__`` body)."""
        if sentence.category_sets != self.category_sets:
            raise NetworkError(
                "sentence shape does not match template "
                f"(n={len(sentence)} vs template n={self.n_words})"
            )
        network.grammar = self.grammar
        network.sentence = sentence
        network.template = self
        network.n_words = self.n_words
        network.n_roles_per_word = self.n_roles_per_word
        network.n_roles = self.n_roles
        network.role_values = self.role_values
        network.role_slices = self.role_slices
        network.nv = self.nv
        network.pos = self.pos
        network.role_kind = self.role_kind
        network.cat = self.cat
        network.lab = self.lab
        network.mod = self.mod
        network.role_index = self.role_index
        network.canbe_array = self.canbe_array
        network.canbe_sets = self.canbe_sets
        # The only genuinely per-sentence state: fresh packed domains
        # and a writable copy of the packed base mask.
        network.bit_layout = self.bit_layout
        network.alive_bits = self.bit_layout.full_words.copy()
        network.matrix_bits = self.base_bits.copy()
        network._bool_mode = False
        network._alive_cache = None
        network._matrix_cache = None
        network.kernel_backend = self.kernel_backend

    # -- shared execute-layer artifacts ------------------------------------

    def vector_masks(self, compiled: CompiledGrammar) -> VectorMasks:
        """Constraint evaluations over this template's field arrays.

        Pure functions of (fields, category table) — i.e. of the
        template — so they are computed once and replayed for every
        sentence of this shape.  The first call per template pays the
        full evaluation cost; this is exactly the work the naive
        per-call parse path repeats for every sentence.
        """
        if self._masks is not None and self._masks_for is compiled:
            return self._masks
        self._compute_masks_full(compiled)
        return self._masks

    def _compute_masks_full(self, compiled: CompiledGrammar) -> None:
        """Evaluate and cache the masks over all O(NV^2) pairs."""
        from repro.constraints.vector import VectorEnv

        unary_env = VectorEnv(x=self._field_arrays(), y=None, canbe=self.canbe_array)
        unary = tuple(_frozen(cc.vector(unary_env)) for cc in compiled.unary)
        binary = self._binary_masks_packed(compiled)
        fused: np.ndarray | None = None
        if binary:
            acc = binary[0].copy()
            for mask in binary[1:]:
                acc &= mask
            fused = _frozen(acc)
        self._masks = VectorMasks(unary=unary, binary=binary, fused=fused)
        self._masks_for = compiled

    def _field_arrays(self) -> dict[str, np.ndarray]:
        """The role-value field arrays, keyed as constraint variables."""
        return {
            "pos": self.pos,
            "role": self.role_kind,
            "cat": self.cat,
            "lab": self.lab,
            "mod": self.mod,
        }

    def _binary_masks_packed(self, compiled: CompiledGrammar) -> tuple[np.ndarray, ...]:
        """Symmetrized packed masks of every binary constraint, full eval.

        Shared by :meth:`vector_masks` and by the deferred ``binary``
        of an extended template (:meth:`_extend_masks`), where it runs
        only if a non-fused consumer actually asks for the tuple.
        """
        from repro.constraints.vector import VectorEnv

        fields = self._field_arrays()
        pair_env = VectorEnv(
            x={k: v[:, None] for k, v in fields.items()},
            y={k: v[None, :] for k, v in fields.items()},
            canbe=self.canbe_array,
        )
        binary: list[np.ndarray] = []
        for cc in compiled.binary:
            permitted = cc.vector(pair_env)
            binary.append(_frozen(bitset.pack_rows(permitted & permitted.T, self.bit_layout)))
        return tuple(binary)

    def scratch_bits(self) -> np.ndarray:
        """A reusable packed ``(NV, n_words)`` buffer for consistency sweeps.

        Shared by every network bound from this template; safe because
        sessions (and engines) are single-threaded by contract and the
        buffer never carries state between calls.
        """
        if self._scratch_bits is None:
            self._scratch_bits = np.empty(
                (self.nv, self.bit_layout.n_words), dtype=bitset.WORD_DTYPE
            )
        return self._scratch_bits

    def nbytes(self) -> int:
        """Approximate resident size, for cache-accounting tests.

        Memoized per lazy-artifact state: sessions report cache bytes on
        every parse/extend, and the arrays counted here are frozen — the
        total only changes when a lazy artifact appears (or deferred
        binary masks materialize), which the state key captures.
        """
        state = (
            self._base_bool is not None,
            self._scratch_bits is not None,
            self._masks is not None,
            self._masks is not None and self._masks.binary_materialized,
            self._masks is not None and self._masks.unary_folded,
        )
        if self._nbytes_cache is not None and self._nbytes_cache[0] == state:
            return self._nbytes_cache[1]
        total = self.base_bits.nbytes + self.canbe_array.nbytes
        total += self.bit_layout.nbytes()
        for arr in (self.pos, self.role_kind, self.cat, self.lab, self.mod, self.role_index):
            total += arr.nbytes
        if self._base_bool is not None:
            total += self._base_bool.nbytes
        if self._scratch_bits is not None:
            total += self._scratch_bits.nbytes
        if self._masks is not None:
            total += sum(m.nbytes for m in self._masks.unary)
            if self._masks.binary_materialized:
                # Deferred binary masks of an extended template are not
                # resident (and must not be materialized by accounting).
                total += sum(m.nbytes for m in self._masks.binary)
            if self._masks.fused is not None:
                total += self._masks.fused.nbytes
            if self._masks.unary_folded:
                total += self._masks.unary_fold.dead.nbytes
        self._nbytes_cache = (state, total)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkTemplate({self.grammar.name!r}, n={self.n_words}, "
            f"NV={self.nv}, masks={'yes' if self._masks else 'no'})"
        )
