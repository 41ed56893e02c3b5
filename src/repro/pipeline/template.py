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

* the vector-evaluation masks (:class:`VectorMasks`, a pure function
  of the field arrays), unary first: the unary vectors and their
  survivors, then the fused binary mask over the survivors' block
  only; the per-constraint binary masks over all NV^2 pairs are
  evaluated only when something reads them;
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


def _fold_unary(unary: tuple[np.ndarray, ...], nv: int) -> tuple[UnaryFold, np.ndarray]:
    """The unary rounds of a fresh bind as one dead set, and its complement.

    Every bind starts fully alive, so the per-constraint rounds end in a
    template constant: the values the AND of *unary* rejects, and a
    ``unary_checks`` total that sums the alive count each round starts
    from.  Killing the set at once leaves the same bits, since a kill
    only zeroes a value's row and column.  The second result is the
    sorted survivors, the values every unary constraint permits.
    """
    alive = np.ones(nv, dtype=bool)
    checks = 0
    for permitted in unary:
        checks += int(np.count_nonzero(alive))
        alive &= permitted
    return UnaryFold(_frozen(np.flatnonzero(~alive)), checks), _frozen(np.flatnonzero(alive))


def _pair_env(fields: dict[str, np.ndarray], canbe: np.ndarray):
    """The binary-constraint env over every pair of the given values."""
    from repro.constraints.vector import VectorEnv

    return VectorEnv(
        x={k: v[:, None] for k, v in fields.items()},
        y={k: v[None, :] for k, v in fields.items()},
        canbe=canbe,
    )


def _binary_masks_packed(
    fields: dict[str, np.ndarray],
    canbe: np.ndarray,
    layout: BitLayout,
    compiled: CompiledGrammar,
) -> tuple[np.ndarray, ...]:
    """Symmetrized packed masks of every binary constraint over all NV^2 pairs.

    The thunk behind ``VectorMasks.binary``.  It takes the template's
    arrays rather than the template, so the template -> masks -> thunk
    chain is no reference cycle: an evicted template is freed at once,
    not when the cyclic collector next runs.
    """
    env = _pair_env(fields, canbe)
    binary: list[np.ndarray] = []
    for cc in compiled.binary:
        permitted = cc.vector(env)
        binary.append(_frozen(bitset.pack_rows(permitted & permitted.T, layout)))
    return tuple(binary)


class VectorMasks:
    """Per-template constraint evaluations for the vector execute path.

    Unary first, as in PARSEC.  ``unary[i]`` is the permitted ``(NV,)``
    bool vector of the i-th unary constraint; ``unary_fold`` folds their
    kill rounds on a fresh bind into one dead set (see
    :func:`_fold_unary`), and ``survivors`` is its frozen sorted
    complement, the K values every unary constraint permits.

    ``fused`` is the survivors' rows of the AND of every binary
    constraint's orientation-symmetrized permitted mask (``permitted &
    permitted.T``), packed in the template's layout as a ``(K,
    n_words)`` uint64 array whose bits lie only in survivor columns;
    ``None`` when the grammar has no binary constraint.  Only the K x K
    block is evaluated: once the fold is killed, every row and column
    outside it is zero, and an AND cannot set a bit, so no entry outside
    the block is ever read.  Maruyama's eliminations are monotone and
    order-independent up to the fixpoint, so the fused schedule may AND
    this one block and run a single consistency fixpoint instead of
    interleaving ``k_b`` mask applications with ``k_b`` full sweeps —
    bit-identical at the fixpoint.

    ``binary[i]`` is the i-th binary constraint's symmetrized mask over
    all NV^2 pairs, packed as an ``(NV, n_words)`` array.  Only the
    per-constraint schedule (a trace hook or ``filter_limit``) and
    introspection read it, so *binary_thunk* evaluates it on first
    access and the result is memoized.
    """

    __slots__ = ("unary", "unary_fold", "survivors", "fused", "_binary", "_binary_thunk")

    def __init__(
        self,
        unary: tuple[np.ndarray, ...],
        unary_fold: UnaryFold,
        survivors: np.ndarray,
        fused: np.ndarray | None,
        binary_thunk: "Callable[[], tuple[np.ndarray, ...]]",
    ):
        self.unary = unary
        self.unary_fold = unary_fold
        self.survivors = survivors
        self.fused = fused
        self._binary: tuple[np.ndarray, ...] | None = None
        self._binary_thunk = binary_thunk

    @property
    def binary(self) -> tuple[np.ndarray, ...]:
        if self._binary is None:
            self._binary = self._binary_thunk()
        return self._binary

    @property
    def binary_materialized(self) -> bool:
        """True once ``binary`` has been evaluated."""
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
    ):
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
        self.bit_layout = BitLayout(self.role_slices)
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
        unary: tuple[np.ndarray, ...],
        fused: np.ndarray | None,
    ) -> "NetworkTemplate":
        """Rebuild a template around arrays attached from shared memory.

        The cheap O(NV) skeleton (role-value enumeration, field arrays,
        category and segment tables) and the unary fold with its survivors
        are recomputed locally; ``base_bits``, the unary vectors and the
        fused block come in as read-only views over a
        :class:`~repro.parallel.shared.SharedTemplateStore` block, so a
        worker process never re-evaluates a constraint for the fused
        schedule.  ``binary`` stays lazy, as on the exporter.
        """
        template = cls(grammar, category_sets, base_bits=base_bits)
        fold, survivors = _fold_unary(unary, template.nv)
        thunk = template._lazy_binary(compiled)
        template._masks = VectorMasks(unary, fold, survivors, fused, thunk)
        template._masks_for = compiled
        return template

    @property
    def key(self) -> ShapeKey:
        """The per-grammar cache key: the sentence's category signature."""
        return self.category_sets

    # -- streaming ---------------------------------------------------------

    def extend(self, category_set: frozenset[int]) -> "NetworkTemplate":
        """The (n+1)-word template: this shape plus one word.

        A plain construction of the longer shape.  Nothing crosses from
        this template: the masks are unary-first (:meth:`vector_masks`),
        so a fresh evaluation costs less than carrying the prefix's
        masks into the new layout.  It calls the constructor, not
        :meth:`build`, so a stream step is one template construction,
        which ``ParserSession.template_builds()`` counts as ``extended``.
        """
        return NetworkTemplate(
            self.grammar, self.category_sets + (frozenset(category_set),)
        )

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
        sentence of this shape.  Unary first: the unary vectors are
        evaluated over all NV values and folded into the survivor set,
        then the binary constraints only over the survivors' K x K
        block, AND-folded as they are evaluated and packed once.  The
        per-constraint binary masks stay lazy (``VectorMasks.binary``).
        """
        if self._masks is not None and self._masks_for is compiled:
            return self._masks
        from repro.constraints.vector import VectorEnv

        fields = self._field_arrays()
        unary_env = VectorEnv(x=fields, y=None, canbe=self.canbe_array)
        unary = tuple(_frozen(cc.vector(unary_env)) for cc in compiled.unary)
        fold, survivors = _fold_unary(unary, self.nv)
        fused: np.ndarray | None = None
        if compiled.binary:
            env = _pair_env({k: v[survivors] for k, v in fields.items()}, self.canbe_array)
            acc = np.ones((survivors.size, survivors.size), dtype=bool)
            for cc in compiled.binary:
                acc &= cc.vector(env)
            # AND_c [p_c & p_c.T] equals [AND_c p_c] & [AND_c p_c].T
            fused = _frozen(bitset.pack_rows(acc & acc.T, self.bit_layout, columns=survivors))
        self._masks = VectorMasks(unary, fold, survivors, fused, self._lazy_binary(compiled))
        self._masks_for = compiled
        return self._masks

    def _field_arrays(self) -> dict[str, np.ndarray]:
        """The role-value field arrays, keyed as constraint variables."""
        return {
            "pos": self.pos,
            "role": self.role_kind,
            "cat": self.cat,
            "lab": self.lab,
            "mod": self.mod,
        }

    def _lazy_binary(self, compiled: CompiledGrammar) -> "Callable[[], tuple[np.ndarray, ...]]":
        """The thunk that evaluates ``VectorMasks.binary`` on first access."""
        return functools.partial(
            _binary_masks_packed, self._field_arrays(), self.canbe_array, self.bit_layout, compiled
        )

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
        """Approximate resident size, for cache accounting.

        Lazy artifacts count once they exist; the per-constraint binary
        masks count only once evaluated, and accounting never evaluates
        them.
        """
        masks = self._masks
        total = self.base_bits.nbytes + self.canbe_array.nbytes
        total += self.bit_layout.nbytes()
        for arr in (self.pos, self.role_kind, self.cat, self.lab, self.mod, self.role_index):
            total += arr.nbytes
        if self._base_bool is not None:
            total += self._base_bool.nbytes
        if self._scratch_bits is not None:
            total += self._scratch_bits.nbytes
        if masks is not None:
            total += sum(m.nbytes for m in masks.unary)
            total += masks.unary_fold.dead.nbytes + masks.survivors.nbytes
            if masks.fused is not None:
                total += masks.fused.nbytes
            if masks.binary_materialized:
                total += sum(m.nbytes for m in masks.binary)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkTemplate({self.grammar.name!r}, n={self.n_words}, "
            f"NV={self.nv}, masks={'yes' if self._masks else 'no'})"
        )
