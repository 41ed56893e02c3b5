"""Common interface implemented by all four parser engines.

The engines (serial, vector, PRAM, MasPar/PARSEC) share one contract:
given a constraint network bound for one sentence, :meth:`ParserEngine.run`
settles it in place with the CDG algorithm —

    unary propagation -> binary propagation -> consistency maintenance
    -> filtering

— and returns the :class:`EngineStats` it recorded.  Parsing goes
through :class:`~repro.pipeline.session.ParserSession`, which binds the
network, runs the engine and wraps the settled network in a
:class:`ParseResult`.  All engines must settle on the *same* network
(the greatest locally-consistent subnetwork); the cross-engine
equivalence tests rely on this.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.network.network import ConstraintNetwork

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.pipeline.compiled import CompiledGrammar

#: Test/debug hook: called with (event, network) after each phase.  Events:
#: "built", "unary:<name>", "unary-done", "binary:<name>",
#: "consistency:<name>", "filtering-done".
TraceHook = Callable[[str, ConstraintNetwork], None]


@dataclass
class EngineStats:
    """Operation counts and timings recorded while parsing.

    ``parallel_steps`` / ``processors`` are only meaningful for the
    simulated parallel engines; ``simulated_seconds`` only for the MasPar
    engine (its cycle-accurate cost model).
    """

    engine: str = ""
    unary_checks: int = 0
    pair_checks: int = 0
    role_values_killed: int = 0
    matrix_entries_zeroed: int = 0
    consistency_passes: int = 0
    filtering_iterations: int = 0
    parallel_steps: int = 0
    processors: int = 0
    wall_seconds: float = 0.0
    simulated_seconds: float | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class ParseResult:
    """Outcome of running an engine over one sentence.

    Attributes:
        network: the settled constraint network.
        locally_consistent: every role kept at least one role value — the
            paper's acceptance condition at the CN level.  (Definitive
            acceptance additionally needs a consistent assignment; use
            :func:`repro.search.extract_parses`.)
        ambiguous: some role still holds multiple role values.
        stats: instrumentation counters.
    """

    network: ConstraintNetwork
    locally_consistent: bool
    ambiguous: bool
    stats: EngineStats

    @property
    def rejected(self) -> bool:
        return not self.locally_consistent


class ParserEngine(abc.ABC):
    """Abstract parser engine."""

    #: Short identifier used in stats and benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        network: ConstraintNetwork,
        *,
        compiled: "CompiledGrammar | None" = None,
        filter_limit: int | None = None,
        trace: TraceHook | None = None,
    ) -> EngineStats:
        """Propagate all constraints over *network* in place.

        Args:
            compiled: the grammar's compiled artifacts; resolved from
                ``network.grammar`` (cached per grammar object) when
                omitted.
        """
