"""Parse tracing and diffing — grammar debugging tooling.

The paper singles out the MasPar's "data visualization capabilities and
the well integrated and extensive debugging support" as what "made the
job of implementing the algorithm much easier".  This module is that
facility for the reproduction: a :class:`TraceRecorder` captures the
constraint network after every propagation phase, and the diff renderer
shows exactly which role values each phase eliminated — the constraint
writer's primary question.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.network import ConstraintNetwork

Snapshot = dict[tuple[int, str], frozenset[str]]


def _snapshot(net: ConstraintNetwork) -> Snapshot:
    out: Snapshot = {}
    for pos in range(1, net.n_words + 1):
        for role_name in net.grammar.roles:
            out[(pos, role_name)] = frozenset(net.domain(pos, role_name))
    return out


@dataclass
class TraceStep:
    """One recorded phase: its name and the domains after it ran."""

    event: str
    domains: Snapshot
    alive: int


@dataclass
class TraceRecorder:
    """Trace hook that snapshots the CN after every phase.

    Use::

        recorder = TraceRecorder()
        ParserSession(grammar, engine=engine).parse(sentence, trace=recorder)
        print(recorder.explain())
    """

    steps: list[TraceStep] = field(default_factory=list)
    words: tuple[str, ...] = ()

    def __call__(self, event: str, net: ConstraintNetwork) -> None:
        self.words = net.sentence.words
        self.steps.append(TraceStep(event, _snapshot(net), int(net.alive.sum())))

    # -- queries ------------------------------------------------------------

    def step(self, event: str) -> TraceStep:
        for step in self.steps:
            if step.event == event:
                return step
        raise KeyError(f"no trace step {event!r}; have {[s.event for s in self.steps]}")

    def eliminations(self, before: Snapshot, after: Snapshot) -> dict[tuple[int, str], frozenset[str]]:
        """Role values present in *before* but gone in *after*, per role."""
        out = {}
        for key, values in before.items():
            gone = values - after.get(key, frozenset())
            if gone:
                out[key] = frozenset(gone)
        return out

    # -- rendering ------------------------------------------------------------

    def explain(self, skip_quiet: bool = True) -> str:
        """A phase-by-phase elimination report.

        Args:
            skip_quiet: omit phases that eliminated nothing.
        """
        lines = []
        previous: Snapshot | None = None
        for step in self.steps:
            if previous is None:
                lines.append(f"[{step.event}] {step.alive} role values")
                previous = step.domains
                continue
            gone = self.eliminations(previous, step.domains)
            if gone or not skip_quiet:
                total = sum(len(v) for v in gone.values())
                lines.append(f"[{step.event}] eliminated {total}:")
                for (pos, role_name), values in sorted(gone.items()):
                    word = self.words[pos - 1]
                    rendered = ", ".join(sorted(values))
                    lines.append(f"    {word}[{pos}].{role_name}: {rendered}")
            previous = step.domains
        return "\n".join(lines)

    def timeline(self) -> list[tuple[str, int]]:
        """(event, surviving role values) pairs, in order."""
        return [(step.event, step.alive) for step in self.steps]
