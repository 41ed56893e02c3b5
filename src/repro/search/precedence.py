"""Precedence graphs — CDG's parse trees (paper Figure 7).

"The modifiees of the remaining role values (which point to the words
they modify) form the edges of the parse trees for the sentence.  The
parse trees in CDG are precedence graphs."

A precedence graph records, for every role of every word, the single
role value chosen for it; the graph's edges run from each word to the
word its role value modifies (no edge for a ``nil`` modifiee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.constraints.symbols import NIL_MOD, SymbolTable
from repro.network.rolevalue import RoleValue

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx


@dataclass(frozen=True)
class PrecedenceGraph:
    """One complete, consistent assignment of role values to roles.

    Attributes:
        words: the sentence tokens.
        assignment: ``assignment[(pos, role_code)]`` is the chosen
            :class:`RoleValue` for that role — positions are 1-based.
    """

    words: tuple[str, ...]
    assignment: tuple[tuple[tuple[int, int], RoleValue], ...]

    @classmethod
    def from_mapping(
        cls, words: tuple[str, ...], mapping: dict[tuple[int, int], RoleValue]
    ) -> "PrecedenceGraph":
        return cls(words=words, assignment=tuple(sorted(mapping.items())))

    def mapping(self) -> dict[tuple[int, int], RoleValue]:
        return dict(self.assignment)

    def role_value(self, pos: int, role: int) -> RoleValue:
        return self.mapping()[(pos, role)]

    def to_networkx(self, symbols: SymbolTable) -> "nx.MultiDiGraph":
        """Render as a labelled multigraph: word nodes, modifiee edges.

        networkx is imported here, its only user, so that ``import
        repro`` does not load it.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for pos, word in enumerate(self.words, start=1):
            graph.add_node(pos, word=word)
        for (pos, role), rv in self.assignment:
            if rv.mod != NIL_MOD:
                graph.add_edge(
                    pos,
                    rv.mod,
                    role=symbols.roles.name(role),
                    label=symbols.labels.name(rv.lab),
                )
        return graph

    def heads(self, governor_role: int = 0) -> dict[int, int]:
        """Dependency heads from the governor role: pos -> head (0 = root)."""
        return {
            pos: rv.mod for (pos, role), rv in self.assignment if role == governor_role
        }

    def describe(self, symbols: SymbolTable) -> str:
        """Multi-line rendering in the style of paper Figure 7."""
        lines = []
        by_word: dict[int, list[str]] = {}
        for (pos, role), rv in self.assignment:
            role_name = symbols.roles.name(role)
            by_word.setdefault(pos, []).append(f"{role_name[0].upper()} = {rv.pretty(symbols)}")
        for pos, word in enumerate(self.words, start=1):
            parts = "  ".join(by_word.get(pos, []))
            lines.append(f"Word = {word}  Position = {pos}  {parts}")
        return "\n".join(lines)

    def pretty_assignment(self, symbols: SymbolTable) -> dict[tuple[int, str], str]:
        """Mapping {(pos, role-name): "LABEL-mod"} — handy for test assertions."""
        return {
            (pos, symbols.roles.name(role)): rv.pretty(symbols)
            for (pos, role), rv in self.assignment
        }
