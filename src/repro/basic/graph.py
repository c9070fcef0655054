"""The coloured wait-for graph and graph axioms G1-G4.

This module implements the *global* graph of section 2: the omniscient view
that the paper reasons about and that no process in the system can observe
directly.  The library uses it two ways:

1. as the **oracle** for verification -- every simulated protocol action
   updates the oracle graph, and the axioms G1-G4 are enforced on each
   transition, so an illegal underlying computation fails fast with
   :class:`~repro.errors.AxiomViolation`;
2. as the **ground truth** for soundness/completeness checks -- "is vertex
   v on a dark cycle right now?" is answered here and compared against what
   the distributed algorithm declares.

Edge colours (section 2.2):

* **grey** -- the request is in flight (G1 creates grey edges),
* **black** -- the request was received, the reply was not yet sent (G2),
* **white** -- the reply is in flight (G3; only an *active* target, one
  with no outgoing edges, may whiten an edge),
* deletion -- the reply was received (G4).

A *dark* edge is grey or black.  A **dark cycle** -- a cycle all of whose
edges are dark -- persists forever (no edge on it can ever be whitened),
and is exactly the paper's notion of deadlock.

Besides every edge by source, the graph indexes its dark edges and its
black edges by source, so the cycle queries walk one colour class with
no colour lookup (DESIGN.md, "Oracle cost").
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from repro._algo import cyclic_sccs, discard_edge, has_path
from repro._ids import VertexId
from repro.errors import AxiomViolation

Edge = tuple[VertexId, VertexId]


class EdgeColor(enum.Enum):
    """Colour of a wait-for edge (section 2.2)."""

    GREY = "grey"
    BLACK = "black"
    WHITE = "white"

    @property
    def is_dark(self) -> bool:
        """Grey and black edges are dark; dark cycles persist forever."""
        return self is not EdgeColor.WHITE


class WaitForGraph:
    """The global coloured wait-for graph with axiom-checked transitions.

    Vertices exist implicitly (the paper assumes vertices for unborn and
    terminated processes, so vertex creation/deletion never needs to be
    modelled); an edge carries exactly one colour.
    """

    def __init__(self) -> None:
        self._color: dict[Edge, EdgeColor] = {}
        self._out: dict[VertexId, set[VertexId]] = {}
        self._in: dict[VertexId, set[VertexId]] = {}
        #: the grey and black edges, by source: G1 adds, G3 removes.
        self._dark_out: dict[VertexId, set[VertexId]] = {}
        #: the black edges, by source: G2 adds, G3 removes.
        self._black_out: dict[VertexId, set[VertexId]] = {}

    # ------------------------------------------------------------------
    # Axiom-checked transitions (G1-G4)
    # ------------------------------------------------------------------

    def create_edge(self, source: VertexId, target: VertexId) -> None:
        """G1: create a grey edge ``(source, target)``; it must not exist."""
        edge = (source, target)
        if edge in self._color:
            raise AxiomViolation(
                "G1", f"edge {edge} already exists with colour {self._color[edge].value}"
            )
        if source == target:
            raise AxiomViolation("G1", f"self-edge {edge} is not a wait-for relation")
        self._color[edge] = EdgeColor.GREY
        self._out.setdefault(source, set()).add(target)
        self._in.setdefault(target, set()).add(source)
        self._dark_out.setdefault(source, set()).add(target)

    def blacken(self, source: VertexId, target: VertexId) -> None:
        """G2: a grey edge turns black (the request was received)."""
        self._expect(source, target, EdgeColor.GREY, axiom="G2")
        self._color[(source, target)] = EdgeColor.BLACK
        self._black_out.setdefault(source, set()).add(target)

    def whiten(self, source: VertexId, target: VertexId) -> None:
        """G3: a black edge turns white; ``target`` must have no outgoing
        edges (only active processes may reply)."""
        self._expect(source, target, EdgeColor.BLACK, axiom="G3")
        if self._out.get(target):
            raise AxiomViolation(
                "G3",
                f"cannot whiten {(source, target)}: target {target} has outgoing "
                f"edges {sorted(self._out[target])} (only active processes reply)",
            )
        self._color[(source, target)] = EdgeColor.WHITE
        discard_edge(self._dark_out, source, target)
        discard_edge(self._black_out, source, target)

    def delete_edge(self, source: VertexId, target: VertexId) -> None:
        """G4: a white edge disappears (the reply was received)."""
        self._expect(source, target, EdgeColor.WHITE, axiom="G4")
        del self._color[(source, target)]
        self._out[source].discard(target)
        self._in[target].discard(source)

    def _expect(
        self, source: VertexId, target: VertexId, color: EdgeColor, axiom: str
    ) -> None:
        actual = self._color.get((source, target))
        if actual is None:
            raise AxiomViolation(axiom, f"edge {(source, target)} does not exist")
        if actual is not color:
            raise AxiomViolation(
                axiom,
                f"edge {(source, target)} is {actual.value}, expected {color.value}",
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def color(self, source: VertexId, target: VertexId) -> EdgeColor | None:
        """Colour of an edge, or ``None`` if it does not exist."""
        return self._color.get((source, target))

    def has_edge(self, source: VertexId, target: VertexId) -> bool:
        return (source, target) in self._color

    def successors(self, vertex: VertexId) -> set[VertexId]:
        """Targets of all outgoing edges (any colour)."""
        return set(self._out.get(vertex, ()))

    def predecessors(self, vertex: VertexId) -> set[VertexId]:
        """Sources of all incoming edges (any colour)."""
        return set(self._in.get(vertex, ()))

    def edges(self) -> Iterator[tuple[Edge, EdgeColor]]:
        """All ``(edge, colour)`` pairs, in insertion order."""
        return iter(self._color.items())

    def dark_edges(self) -> list[Edge]:
        """The grey and black edges."""
        return [
            (source, target)
            for source, targets in self._dark_out.items()
            for target in targets
        ]

    def vertices(self) -> set[VertexId]:
        """All vertices incident to at least one current edge."""
        seen: set[VertexId] = set()
        for source, target in self._color:
            seen.add(source)
            seen.add(target)
        return seen

    def __len__(self) -> int:
        """Number of edges currently in the graph."""
        return len(self._color)

    # ------------------------------------------------------------------
    # Dark/black cycle analysis (ground truth for verification)
    # ------------------------------------------------------------------

    def is_on_dark_cycle(self, vertex: VertexId) -> bool:
        """True iff ``vertex`` lies on a cycle of grey/black edges.

        This is the paper's deadlock condition: a dark cycle persists
        forever (section 2.4), so a vertex on one is deadlocked.
        """
        return has_path(self._dark_out, vertex, vertex)

    def is_on_black_cycle(self, vertex: VertexId) -> bool:
        """True iff ``vertex`` lies on a cycle of all-black edges.

        QRP2 (Theorem 2) promises exactly this at the instant the initiator
        receives a meaningful probe, so soundness checks use the black --
        not merely dark -- predicate.
        """
        return has_path(self._black_out, vertex, vertex)

    def vertices_on_dark_cycles(self) -> set[VertexId]:
        """All vertices currently on at least one dark cycle: the cyclic
        SCCs of the dark subgraph, found in one Tarjan pass (G1 forbids
        self-edges, so a cyclic SCC is one with more than one member)."""
        return set().union(*cyclic_sccs(self._dark_out))

    def _dark_successors(self, vertex: VertexId) -> Iterator[VertexId]:
        for target in self._out.get(vertex, ()):
            if self._color[(vertex, target)] is not EdgeColor.WHITE:
                yield target

    def find_dark_cycle(self, vertex: VertexId) -> list[VertexId] | None:
        """Return one dark cycle through ``vertex`` as a vertex list, or None.

        The list starts and ends logically at ``vertex`` (the closing edge
        back to the first element is implied, not repeated).  Iterative
        DFS (one successor iterator per path vertex), so cycles of any
        length stay clear of the recursion limit.  The walk follows
        ``_out``, not the dark index: ``_out``'s iteration order picks
        which cycle comes back, and with it the formation times stamped
        from that cycle.
        """
        path: list[VertexId] = [vertex]
        on_path: set[VertexId] = {vertex}
        visited: set[VertexId] = set()
        successors = [self._dark_successors(vertex)]
        while successors:
            for nxt in successors[-1]:
                if nxt == vertex:
                    return path
                if nxt in on_path or nxt in visited:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                successors.append(self._dark_successors(nxt))
                break
            else:
                successors.pop()
                done = path.pop()
                on_path.discard(done)
                visited.add(done)
        return None

    def permanent_black_edges_from(self, vertex: VertexId) -> set[Edge]:
        """Ground truth for the WFGD computation of section 5.

        The WFGD computation lets each deadlocked vertex determine all
        *permanent black paths leading from it*.  An edge is permanently
        black when it is black and its target can never become active,
        i.e. the target's blocking can never resolve -- which, once a dark
        cycle exists, holds for every black edge whose endpoints both reach
        a dark cycle along dark edges.  For verification we compute the set
        of black edges ``(a, b)`` reachable from ``vertex`` along black
        edges such that ``b`` reaches a dark cycle.
        """
        deadlocked = self.vertices_on_dark_cycles()
        if not deadlocked:
            return set()
        # Vertices from which a dark cycle is reachable along dark edges are
        # permanently blocked.
        permanently_blocked = set(deadlocked)
        changed = True
        while changed:
            changed = False
            for (a, b), color in self._color.items():
                if color.is_dark and b in permanently_blocked and a not in permanently_blocked:
                    permanently_blocked.add(a)
                    changed = True
        result: set[Edge] = set()
        stack = [vertex]
        seen: set[VertexId] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for target in self._out.get(current, ()):
                edge = (current, target)
                if self._color.get(edge) is EdgeColor.BLACK and target in permanently_blocked:
                    result.add(edge)
                    stack.append(target)
        return result

    def __repr__(self) -> str:
        return f"WaitForGraph(edges={len(self._color)})"
