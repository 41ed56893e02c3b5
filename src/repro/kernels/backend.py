"""The kernel-backend table: name -> Boolean-kernel provider.

Two backends: ``packed`` (the default; pure numpy, runs everywhere) and
``native`` (the same kernels compiled to C, see
:mod:`repro.kernels.native`).  The CLI, ``ParserSession`` and the
benchmarks resolve backends through this one table.  Resolution has a
fallback contract: when ``native`` cannot be built on this host its
factory raises :class:`KernelBackendUnavailable`, and
:func:`create_backend` warns once and falls back to ``packed`` instead
of failing the parse — "native when it builds, else packed".

Resolution order — one rule, shared by every entry point
(:func:`resolve_backend_name` implements it; :func:`create_backend`
and :func:`default_backend` both call it): an explicit ``backend=``
argument wins, else the ``REPRO_KERNEL_BACKEND`` environment variable,
else the ``"packed"`` default.  Resolution is memoized per resolved
name (including the warn-once fallback instance), so repeated
resolution — one per network bind on the hot path — is a dict hit.

A backend provides the word-level surface the CDG engines run on:

* ``support_any(matrix_words, alive_words, seg_byte_starts)`` — the
  consistency sweep's OR-reduction: does row *a* keep an alive partner
  in each segment?  Computed as a word-wide AND plus a segmented byte
  OR.
* ``and_accumulate`` / ``count_ones`` — the fused-mask apply and the
  popcount bookkeeping around it.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.kernels import bitops

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The always-available default.
DEFAULT_BACKEND = "packed"


class KernelBackendUnavailable(ReproError):
    """A kernel backend cannot run on this host.

    Raised by backend *factories* (``native`` without a C toolchain);
    :func:`create_backend` catches it and falls back to the default
    backend with a warning.
    """


class KernelBackend:
    """Base class: word-level primitives shared by every backend."""

    name = "abstract"

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """(rows, n_segments) bool: does each row keep an alive bit per segment?"""
        raise NotImplementedError

    def and_accumulate(self, target_words: np.ndarray, mask_words: np.ndarray) -> int:
        """AND *mask* into *target* in place; return bits cleared."""
        return bitops.and_accumulate(target_words, mask_words)

    def count_ones(self, words: np.ndarray) -> int:
        """Total population count of a packed array."""
        return bitops.count_ones(words)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"


class PackedBackend(KernelBackend):
    """Word-at-a-time numpy kernels: word-wide ANDs, reduceat sweeps."""

    name = "packed"

    def support_any(
        self,
        matrix_words: np.ndarray,
        alive_words: np.ndarray,
        seg_byte_starts: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        masked = np.bitwise_and(matrix_words, alive_words[None, :], out=out)
        return bitops.or_segments(masked, seg_byte_starts) != 0


def _native_factory() -> KernelBackend:
    # Deferred import: constructing the backend compiles the C library
    # on first use, and hosts without a toolchain must still import
    # this module cheaply.
    from repro.kernels.native import NativeBackend

    return NativeBackend()


_REGISTRY: dict[str, Callable[[], KernelBackend]] = {
    "packed": PackedBackend,
    "native": _native_factory,
}
_INSTANCES: dict[str, KernelBackend] = {}


def reset_backend_cache(name: "str | None" = None) -> None:
    """Drop memoized backend instances (one name, or all).

    Resolution caches aggressively — including the warn-once fallback
    instance for an unavailable backend — so tests that change the
    environment (compiler overrides, build-cache paths) reset here to
    re-run factories.
    """
    if name is None:
        _INSTANCES.clear()
    else:
        _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Backend names, as a deterministic sorted tuple.

    Deterministic because the CLI embeds it in ``--kernel-backend``
    help text and validation messages.
    """
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(backend: "str | None" = None) -> str:
    """The one resolution rule: explicit arg > ``REPRO_KERNEL_BACKEND``
    environment variable > the ``packed`` default.

    Every resolution path (:func:`create_backend`,
    :func:`default_backend`, the CLI, child-process initializers) goes
    through this function, so "which backend would run?" has exactly
    one answer per process state.
    """
    return backend or os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def create_backend(backend: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve *backend*: instance passes through, a name is resolved
    via :func:`resolve_backend_name` and built (memoized per name).

    Raises:
        ReproError: for a name that is not in the table.

    A backend whose factory raises :class:`KernelBackendUnavailable`
    falls back to the default backend with a single ``RuntimeWarning``
    per process — requesting ``native`` on a host without a compiler
    must degrade, not fail.  The fallback instance is memoized under
    the requested name, so the warning fires once and later
    resolutions are silent dict hits (:func:`reset_backend_cache`
    re-arms the factory).
    """
    if isinstance(backend, KernelBackend):
        return backend
    requested = resolve_backend_name(backend)
    instance = _INSTANCES.get(requested)
    if instance is not None:
        return instance
    try:
        factory = _REGISTRY[requested]
    except KeyError:
        raise ReproError(
            f"unknown kernel backend {requested!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    try:
        instance = factory()
    except KernelBackendUnavailable as exc:
        if requested == DEFAULT_BACKEND:
            raise
        warnings.warn(
            f"kernel backend {requested!r} unavailable ({exc}); "
            f"falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        instance = create_backend(DEFAULT_BACKEND)
    _INSTANCES[requested] = instance
    return instance


def default_backend() -> KernelBackend:
    """The backend for callers with no explicit selection.

    Used by networks built outside a :class:`ParserSession`.  Same
    resolution rule and same per-name memo as :func:`create_backend`
    (this *is* ``create_backend(None)``, kept as a named entry point
    because the hot path reads better at call sites).
    """
    return create_backend(None)
