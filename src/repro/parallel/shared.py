"""Zero-copy template transport: shared-memory export/attach.

A :class:`NetworkTemplate`'s expensive artifacts — the packed O(NV^2)
base matrix and what the fused schedule reads of its
:class:`VectorMasks` (the unary vectors and the fused mask over the
unary survivors' rows) — are immutable once built, which makes
them exactly the thing to place in OS shared memory: the parent
exports each shape **once**, and every worker process attaches
read-only NumPy views over the same physical pages instead of
receiving megabyte pickles per task.  This is the software analogue of
the paper's PE-cluster virtualization: the constraint program is
broadcast once, sentence work is fanned out.

Ownership contract (enforced by the leak-check test):

* the :class:`SharedTemplateStore` that *created* a block is its sole
  owner: only it calls ``unlink()`` (via :meth:`SharedTemplateStore.close`),
  and it must outlive every pool that attaches the block;
* workers only ever ``attach`` + ``close`` their own mapping — never
  ``unlink`` — and they must not call ``resource_tracker.unregister``:
  pool children share the parent's resource-tracker process, where the
  attach-side re-registration is a set-dedup no-op and an unregister
  would clobber the owner's registration;
* therefore the shutdown order is always *pool first, store second*
  (children drop their mappings at exit; the owner then unlinks), and a
  clean shutdown leaves no ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ReproError
from repro.grammar.grammar import CDGGrammar
from repro.pipeline.compiled import CompiledGrammar
from repro.pipeline.template import NetworkTemplate, ShapeKey, VectorMasks

#: NumPy views into a shared block start on 8-byte boundaries so the
#: uint64 word arrays stay aligned regardless of packing order.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Where one exported array lives inside a shared block."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedTemplateHandle:
    """A picklable ticket for attaching one exported template.

    Cheap to ship per task (a name plus array geometry); the actual
    megabytes stay in the shared block it points at.
    """

    shm_name: str
    grammar_name: str
    key: ShapeKey
    nv: int
    n_words: int
    specs: tuple[ArraySpec, ...]
    nbytes: int

    def spec(self, name: str) -> ArraySpec | None:
        for spec in self.specs:
            if spec.name == name:
                return spec
        return None


def _export_arrays(template: NetworkTemplate, masks: VectorMasks) -> list[tuple[str, np.ndarray]]:
    """The (name, array) payload of one template, stacking the unary vectors.

    The per-constraint binary masks are not exported: reading
    ``masks.binary`` would evaluate them, and only the per-constraint
    schedule needs them; an attached template evaluates them lazily.
    """
    unary = np.zeros((len(masks.unary), template.nv), dtype=bool)
    for i, mask in enumerate(masks.unary):
        unary[i] = mask
    arrays = [
        ("base_bits", template.base_bits),
        ("unary", unary),
    ]
    if masks.fused is not None:
        arrays.append(("fused", masks.fused))
    return arrays


class SharedTemplateStore:
    """Owner-side registry of templates exported to shared memory.

    One block per sentence shape, created on first :meth:`export` and
    reused for every later call with the same key; thread-safe so
    concurrent service workers can export while racing on the same
    shape.  The store owns every block it creates: :meth:`close`
    closes *and unlinks* them all, after which attached children (which
    must already have exited — pool first, store second) cannot
    re-attach.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._blocks: dict[ShapeKey, tuple[shared_memory.SharedMemory, SharedTemplateHandle]] = {}
        self._closed = False

    def export(self, template: NetworkTemplate, compiled: CompiledGrammar) -> SharedTemplateHandle:
        """Export *template* (idempotent per shape) and return its handle."""
        with self._lock:
            if self._closed:
                raise ReproError("SharedTemplateStore is closed")
            cached = self._blocks.get(template.key)
            if cached is not None:
                return cached[1]
            masks = template.vector_masks(compiled)
            payload = _export_arrays(template, masks)
            specs: list[ArraySpec] = []
            offset = 0
            for name, array in payload:
                offset = _aligned(offset)
                specs.append(ArraySpec(name, array.shape, str(array.dtype), offset))
                offset += array.nbytes
            shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
            for spec, (_, array) in zip(specs, payload, strict=True):
                dst = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset)
                dst[...] = array
            handle = SharedTemplateHandle(
                shm_name=shm.name,
                grammar_name=template.grammar.name,
                key=template.key,
                nv=template.nv,
                n_words=template.bit_layout.n_words,
                specs=tuple(specs),
                nbytes=offset,
            )
            self._blocks[template.key] = (shm, handle)
            return handle

    def nbytes(self) -> int:
        """Total payload bytes across all exported blocks."""
        with self._lock:
            return sum(handle.nbytes for _, handle in self._blocks.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def close(self) -> None:
        """Close and unlink every owned block (idempotent).

        Callers must shut their pools down first: after this, the
        blocks are gone from ``/dev/shm`` and attaching raises.
        """
        with self._lock:
            blocks, self._blocks = self._blocks, {}
            self._closed = True
        for shm, _ in blocks.values():
            shm.close()
            shm.unlink()

    def __enter__(self) -> "SharedTemplateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_template(
    handle: SharedTemplateHandle,
    grammar: CDGGrammar,
    compiled: CompiledGrammar,
) -> tuple[NetworkTemplate, shared_memory.SharedMemory]:
    """Worker-side attach: rebuild a template over shared views.

    Recomputes the cheap O(NV) skeleton locally and wires the O(NV^2)
    artifacts straight into the block — no copy, no pickle.  Every view
    is marked read-only; the parallel discipline (lint rule RPR010)
    is that nothing downstream ever writes through them.  The caller
    owns the returned mapping and must ``close()`` it when done (the
    worker-side template cache does this on eviction); it must **not**
    ``unlink()`` — that is the exporting store's job.
    """
    if grammar.name != handle.grammar_name:
        raise ReproError(
            f"handle was exported under grammar {handle.grammar_name!r}, "
            f"worker is running {grammar.name!r}"
        )
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    views: dict[str, np.ndarray] = {}
    for spec in handle.specs:
        view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset)
        view.setflags(write=False)
        views[spec.name] = view
    template = NetworkTemplate.from_shared(
        grammar,
        handle.key,
        compiled,
        base_bits=views["base_bits"],
        unary=tuple(views["unary"]),
        fused=views.get("fused"),
    )
    return template, shm
