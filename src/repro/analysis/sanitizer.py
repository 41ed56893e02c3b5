"""Runtime sanitizer for the packed-core and session-threading invariants.

``repro-lint`` (:mod:`repro.analysis.lint`) checks the *source* for
invariant violations; this module checks *executions*.  When enabled it
monkey-patches the hot seams of the execution core and asserts the three
properties everything downstream assumes:

1. **Monotonicity** — arc-matrix bits and alive bits only ever go
   1 -> 0 (the paper's "entries are only cleared, never set"); any
   mutation helper or materialize/repack bracket that flips a bit
   0 -> 1 raises immediately, at the call that did it.
2. **Frozen shares stay frozen** — the template's shared arrays and the
   packed-mode boolean views must keep ``writeable=False``; a thawed
   buffer means some engine is about to scribble on state shared across
   sentences (or silently desynchronize the packed truth).
3. **Thread ownership** — a :class:`~repro.pipeline.session.ParserSession`
   and each :class:`~repro.network.network.ConstraintNetwork` belong to
   the first thread that uses them; any other thread touching them is a
   data race (the session's own guard only catches *concurrent* entry,
   not handoff races).

Enabling
--------

* environment: ``REPRO_SANITIZE=1`` before importing :mod:`repro`
  (checked once at import via :func:`maybe_enable_from_env`);
* programmatic: :func:`enable` / :func:`disable`;
* pytest: the ``sanitized`` fixture from ``tests/conftest.py``
  (``pytest -m sanitize`` runs the suite that exercises it).

The checks copy packed arrays around, so leave the sanitizer off for
benchmarks; it is a debugging/CI tool, not a production mode.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import bitops

#: Environment variable that switches the sanitizer on at import time.
ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(AssertionError):
    """An execution violated a core invariant (see module docstring)."""


@dataclass
class Diagnostic:
    """One recorded violation (also carried by :class:`SanitizerError`)."""

    kind: str
    message: str
    thread: str = field(default_factory=lambda: threading.current_thread().name)

    def render(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread!r})"


def _raise(kind: str, message: str) -> None:
    diagnostic = Diagnostic(kind=kind, message=message)
    _STATE.diagnostics.append(diagnostic)
    raise SanitizerError(diagnostic.render())


class _State:
    def __init__(self) -> None:
        self.enabled = False
        self.originals: dict = {}
        self.diagnostics: list[Diagnostic] = []


_STATE = _State()


def _new_bits(old: np.ndarray, new: np.ndarray) -> int:
    """How many bits are set in *new* that were clear in *old*."""
    if old.shape != new.shape:
        return 0  # shape changed: not a monotonicity question
    return bitops.count_ones(np.asarray(new & ~old))


def _describe_network(network) -> str:
    words = getattr(getattr(network, "sentence", None), "words", None)
    label = " ".join(words) if words else "<unbound>"
    return f"network({label!r}, nv={network.nv})"


def _claim_thread(obj, what: str) -> None:
    """First toucher owns *obj*; later cross-thread touches raise."""
    current = threading.get_ident()
    owner = getattr(obj, "_san_owner", None)
    if owner is None:
        obj._san_owner = current
        obj._san_owner_name = threading.current_thread().name
    elif owner != current:
        _raise(
            "cross-thread",
            f"{what} used from thread {threading.current_thread().name!r} "
            f"but owned by thread {obj._san_owner_name!r}; sessions and "
            "networks are single-threaded — give each worker its own",
        )


def _check_frozen(array: "np.ndarray | None", what: str) -> None:
    if array is not None and array.flags.writeable:
        _raise("thawed-frozen", f"{what} is writeable; shared arrays must stay frozen")


# -- patches ----------------------------------------------------------------


def _patch(cls, name: str, wrapper_factory) -> None:
    original = getattr(cls, name)
    _STATE.originals[(cls, name)] = original
    setattr(cls, name, wrapper_factory(original))


def _monotonic_mutation(original):
    """Wrap a packed-mode mutation helper with a before/after bit check."""

    def wrapper(self, *args, **kwargs):
        _claim_thread(self, _describe_network(self))
        if self.packed_active:
            alive_before = self.alive_bits.copy()
            matrix_before = self.matrix_bits.copy()
            result = original(self, *args, **kwargs)
            grew = _new_bits(alive_before, self.alive_bits) + _new_bits(
                matrix_before, self.matrix_bits
            )
            if grew:
                _raise(
                    "monotonicity",
                    f"{original.__name__} set {grew} bit(s) 0->1 on "
                    f"{_describe_network(self)}; packed state may only be cleared",
                )
            return result
        return original(self, *args, **kwargs)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def _materialize_wrapper(original):
    def wrapper(self):
        _claim_thread(self, _describe_network(self))
        if self.packed_active:
            # Snapshot the packed truth: repack must not grow it.
            self._san_alive_snapshot = self.alive_bits.copy()
            self._san_matrix_snapshot = self.matrix_bits.copy()
        return original(self)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def _repack_wrapper(original):
    def wrapper(self):
        _claim_thread(self, _describe_network(self))
        was_bool = not self.packed_active
        result = original(self)
        if was_bool:
            for attr, snapshot_attr in (
                ("alive_bits", "_san_alive_snapshot"),
                ("matrix_bits", "_san_matrix_snapshot"),
            ):
                snapshot = getattr(self, snapshot_attr, None)
                if snapshot is None:
                    continue
                grew = _new_bits(snapshot, getattr(self, attr))
                if grew:
                    _raise(
                        "monotonicity",
                        f"repack() of {_describe_network(self)} set {grew} "
                        f"bit(s) 0->1 in {attr} relative to the "
                        "materialize_bool() snapshot; the boolean interlude "
                        "revived role values or arcs",
                    )
            self._san_alive_snapshot = None
            self._san_matrix_snapshot = None
            _check_frozen(self.alive, f"{_describe_network(self)}.alive view")
            _check_frozen(self.matrix, f"{_describe_network(self)}.matrix view")
        return result

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def _clone_wrapper(original):
    def wrapper(self):
        other = original(self)
        # The clone is fresh: it inherits neither owner nor snapshots.
        for attr in ("_san_owner", "_san_owner_name", "_san_alive_snapshot",
                     "_san_matrix_snapshot"):
            other.__dict__.pop(attr, None)
        return other

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def _bind_wrapper(original):
    def wrapper(self, sentence):
        # Every bind re-checks that the template's shared arrays are
        # still frozen — a thawed one would leak writes across networks.
        for name in ("pos", "role_kind", "cat", "lab", "mod", "role_index",
                     "base_bits", "canbe_array", "nonempty_roles", "nonempty_starts"):
            _check_frozen(getattr(self, name, None), f"NetworkTemplate.{name}")
        return original(self, sentence)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


def _session_parse_wrapper(original):
    def wrapper(self, *args, **kwargs):
        _claim_thread(self, f"ParserSession(engine={self.engine.name!r})")
        return original(self, *args, **kwargs)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    return wrapper


# -- public API -------------------------------------------------------------


def enable() -> None:
    """Install the sanitizer patches (idempotent)."""
    if _STATE.enabled:
        return
    from repro.network.network import ConstraintNetwork
    from repro.pipeline.session import ParserSession
    from repro.pipeline.template import NetworkTemplate

    _patch(ConstraintNetwork, "kill", _monotonic_mutation)
    _patch(ConstraintNetwork, "apply_pair_mask", _monotonic_mutation)
    _patch(ConstraintNetwork, "apply_pair_mask_bits", _monotonic_mutation)
    _patch(ConstraintNetwork, "apply_row_mask_bits", _monotonic_mutation)
    _patch(ConstraintNetwork, "materialize_bool", _materialize_wrapper)
    _patch(ConstraintNetwork, "repack", _repack_wrapper)
    _patch(ConstraintNetwork, "clone", _clone_wrapper)
    _patch(NetworkTemplate, "bind", _bind_wrapper)
    _patch(ParserSession, "parse", _session_parse_wrapper)
    _STATE.enabled = True


def disable() -> None:
    """Remove the patches and forget recorded diagnostics (idempotent)."""
    if not _STATE.enabled:
        return
    for (cls, name), original in _STATE.originals.items():
        setattr(cls, name, original)
    _STATE.originals.clear()
    _STATE.diagnostics.clear()
    _STATE.enabled = False


def is_enabled() -> bool:
    return _STATE.enabled


def diagnostics() -> list[Diagnostic]:
    """Violations recorded so far (each also raised a SanitizerError)."""
    return list(_STATE.diagnostics)


def maybe_enable_from_env() -> bool:
    """Enable iff ``REPRO_SANITIZE`` is set to a truthy value."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in {"1", "true", "yes", "on"}:
        enable()
        return True
    return False
