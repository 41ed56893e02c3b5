"""The engine registry: name -> factory, the execute layer's dispatch.

The CLI, the session API and the benchmarks all resolve engines through
one table, so adding an engine is one :func:`register_engine` call.
Factories (not instances) are registered because some engines carry
per-run configuration (``SerialEngine(exhaustive=True)``).
"""

from __future__ import annotations

from typing import Callable

from repro.engines.base import ParserEngine
from repro.errors import ReproError

EngineFactory = Callable[[], ParserEngine]

_REGISTRY: dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register *factory* under *name* (later registrations win)."""
    _REGISTRY[name] = factory


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def create_engine(engine: "str | ParserEngine") -> ParserEngine:
    """Resolve *engine*: an instance passes through, a name is built."""
    if isinstance(engine, ParserEngine):
        return engine
    _ensure_builtin()
    try:
        factory = _REGISTRY[engine]
    except KeyError:
        raise ReproError(
            f"unknown engine {engine!r}; available: {', '.join(available_engines())}"
        ) from None
    return factory()


def _ensure_builtin() -> None:
    """Populate the registry with the built-in engines, lazily.

    The machine-simulated engines live in packages layered *above*
    ``repro.engines``, so they are imported on first resolution rather
    than at module import.
    """
    if "maspar" in _REGISTRY:
        return
    from repro.engines.pram import PRAMEngine
    from repro.engines.serial import SerialEngine
    from repro.engines.vector import VectorEngine
    from repro.mesh.engine import MeshEngine
    from repro.parsec.parser import MasParEngine

    _REGISTRY.setdefault("serial", SerialEngine)
    _REGISTRY.setdefault("serial-exhaustive", lambda: SerialEngine(exhaustive=True))
    _REGISTRY.setdefault("vector", VectorEngine)
    _REGISTRY.setdefault("pram", PRAMEngine)
    _REGISTRY.setdefault("maspar", MasParEngine)
    _REGISTRY.setdefault("mesh", MeshEngine)
