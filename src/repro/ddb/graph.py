"""The DDB process-level coloured wait-for graph (axioms G1-G6, section 6.4).

Vertices are DDB processes ``(T_i, S_j)``.  Two edge kinds exist:

* **intra-controller** edges, between processes at the same computer,
  always black (the controller locally knows both sides of the wait);
* **inter-controller** edges, between two processes of the *same
  transaction* at different computers, coloured grey / black / white with
  the basic-model meaning.

As in the basic model, this graph is the omniscient oracle: controllers
update it transactionally with their protocol actions (for verification
only -- no protocol decision reads it), and the soundness/completeness
checks of the DDB experiments are answered here.

Deadlock resolution (our extension -- the paper's model has no aborts)
removes edges in ways G1-G6 do not describe; those removals go through
:meth:`force_remove_intra_edge` / :meth:`force_remove_inter_edge`, which
bypass the axiom checks deliberately and only on the abort path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro._algo import cyclic_sccs, discard_edge, has_path
from repro._ids import ProcessId
from repro.basic.graph import EdgeColor
from repro.errors import AxiomViolation

ProcessEdge = tuple[ProcessId, ProcessId]


class DdbWaitForGraph:
    """Coloured process-level wait-for graph with DDB axioms enforced."""

    def __init__(self) -> None:
        #: intra edges (always black): edge -> True
        self._intra: set[ProcessEdge] = set()
        #: inter edges: edge -> (colour, serial)
        self._inter: dict[ProcessEdge, tuple[EdgeColor, int]] = {}
        #: every edge, by source
        self._out: dict[ProcessId, set[ProcessId]] = {}
        #: the grey and black edges, by source: every edge is dark when
        #: added (G1/G3) and stops being dark when whitened or removed
        self._dark_out: dict[ProcessId, set[ProcessId]] = {}

    # ------------------------------------------------------------------
    # Intra-controller edges (G1, G2 of the DDB axioms)
    # ------------------------------------------------------------------

    def add_intra_edge(self, source: ProcessId, target: ProcessId) -> None:
        """G1 (DDB): add a black intra-controller edge if none exists."""
        edge = (source, target)
        if source.site != target.site:
            raise AxiomViolation(
                "G1-DDB", f"intra edge {edge} spans sites {source.site} != {target.site}"
            )
        if source == target:
            raise AxiomViolation("G1-DDB", f"self-edge {edge}")
        if edge in self._intra or edge in self._inter:
            raise AxiomViolation("G1-DDB", f"edge {edge} already exists")
        self._intra.add(edge)
        self._link(source, target)

    def remove_intra_edge(self, source: ProcessId, target: ProcessId) -> None:
        """G2 (DDB): delete a black intra edge; target must be active."""
        edge = (source, target)
        if edge not in self._intra:
            raise AxiomViolation("G2-DDB", f"intra edge {edge} does not exist")
        if self._out.get(target):
            raise AxiomViolation(
                "G2-DDB",
                f"cannot delete {edge}: target has outgoing edges "
                f"{sorted(self._out[target])}",
            )
        self._intra.discard(edge)
        self._unlink(source, target)

    def force_remove_intra_edge(self, source: ProcessId, target: ProcessId) -> bool:
        """Abort path: drop an intra edge regardless of G2.  Returns True
        if the edge existed."""
        edge = (source, target)
        if edge not in self._intra:
            return False
        self._intra.discard(edge)
        self._unlink(source, target)
        return True

    # ------------------------------------------------------------------
    # Inter-controller edges (G3-G6 of the DDB axioms)
    # ------------------------------------------------------------------

    def add_inter_edge(self, source: ProcessId, target: ProcessId, serial: int) -> None:
        """G3 (DDB): add a grey inter edge if the edge does not exist."""
        edge = (source, target)
        if source.transaction != target.transaction:
            raise AxiomViolation(
                "G3-DDB",
                f"inter edge {edge} spans transactions "
                f"{source.transaction} != {target.transaction}",
            )
        if source.site == target.site:
            raise AxiomViolation("G3-DDB", f"inter edge {edge} within one site")
        if edge in self._inter or edge in self._intra:
            raise AxiomViolation("G3-DDB", f"edge {edge} already exists")
        self._inter[edge] = (EdgeColor.GREY, serial)
        self._link(source, target)

    def blacken_inter_edge(self, source: ProcessId, target: ProcessId, serial: int) -> bool:
        """G4 (DDB): a grey inter edge turns black when the remote request
        is received.

        Returns False (no-op) when the edge is gone or carries a different
        serial -- which happens only when the transaction was aborted while
        the request was in flight.
        """
        state = self._inter.get((source, target))
        if state is None or state[1] != serial:
            return False
        color, _ = state
        if color is not EdgeColor.GREY:
            raise AxiomViolation(
                "G4-DDB", f"inter edge {(source, target)} is {color.value}, expected grey"
            )
        self._inter[(source, target)] = (EdgeColor.BLACK, serial)
        return True

    def whiten_inter_edge(self, source: ProcessId, target: ProcessId, serial: int) -> bool:
        """G5 (DDB): black turns white when all items are granted; the
        target (agent) must have no outgoing edges.  Serial-mismatch no-op
        as in :meth:`blacken_inter_edge`.
        """
        state = self._inter.get((source, target))
        if state is None or state[1] != serial:
            return False
        color, _ = state
        if color is not EdgeColor.BLACK:
            raise AxiomViolation(
                "G5-DDB", f"inter edge {(source, target)} is {color.value}, expected black"
            )
        if self._out.get(target):
            raise AxiomViolation(
                "G5-DDB",
                f"cannot whiten {(source, target)}: target {target} has outgoing edges",
            )
        self._inter[(source, target)] = (EdgeColor.WHITE, serial)
        discard_edge(self._dark_out, source, target)
        return True

    def delete_inter_edge(self, source: ProcessId, target: ProcessId, serial: int) -> bool:
        """G6 (DDB): a white inter edge disappears when the 'acquired'
        message reaches the origin.  Serial-mismatch no-op."""
        state = self._inter.get((source, target))
        if state is None or state[1] != serial:
            return False
        color, _ = state
        if color is not EdgeColor.WHITE:
            raise AxiomViolation(
                "G6-DDB", f"inter edge {(source, target)} is {color.value}, expected white"
            )
        del self._inter[(source, target)]
        self._unlink(source, target)
        return True

    def force_remove_inter_edge(self, source: ProcessId, target: ProcessId) -> bool:
        """Abort path: drop an inter edge in any colour state."""
        if (source, target) not in self._inter:
            return False
        del self._inter[(source, target)]
        self._unlink(source, target)
        return True

    # ------------------------------------------------------------------
    # Internal adjacency maintenance
    # ------------------------------------------------------------------

    def _link(self, source: ProcessId, target: ProcessId) -> None:
        self._out.setdefault(source, set()).add(target)
        self._dark_out.setdefault(source, set()).add(target)

    def _unlink(self, source: ProcessId, target: ProcessId) -> None:
        discard_edge(self._out, source, target)
        discard_edge(self._dark_out, source, target)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def color(self, source: ProcessId, target: ProcessId) -> EdgeColor | None:
        """Colour of an edge (intra edges are always black), or None."""
        if (source, target) in self._intra:
            return EdgeColor.BLACK
        state = self._inter.get((source, target))
        return state[0] if state is not None else None

    def has_edge(self, source: ProcessId, target: ProcessId) -> bool:
        return (source, target) in self._intra or (source, target) in self._inter

    def successors(self, process: ProcessId) -> set[ProcessId]:
        return set(self._out.get(process, ()))

    def edges(self) -> Iterator[tuple[ProcessEdge, EdgeColor]]:
        for edge in self._intra:
            yield edge, EdgeColor.BLACK
        for edge, (color, _) in self._inter.items():
            yield edge, color

    def dark_edges(self) -> list[ProcessEdge]:
        """The grey and black edges (intra edges are black)."""
        return [
            (source, target)
            for source, targets in self._dark_out.items()
            for target in targets
        ]

    def __len__(self) -> int:
        return len(self._intra) + len(self._inter)

    # ------------------------------------------------------------------
    # Cycle analysis (verification ground truth)
    # ------------------------------------------------------------------

    def _black_successors(self, process: ProcessId) -> Iterable[ProcessId]:
        for target in self._out.get(process, ()):
            if self.color(process, target) is EdgeColor.BLACK:
                yield target

    def has_dark_path(self, source: ProcessId, target: ProcessId) -> bool:
        """Is there a non-empty path of grey/black edges from ``source``
        to ``target``?"""
        return has_path(self._dark_out, source, target)

    def is_on_dark_cycle(self, process: ProcessId) -> bool:
        """Deadlock ground truth: a cycle of grey/black edges through
        ``process`` (intra edges count as black)."""
        return self.has_dark_path(process, process)

    def is_on_black_cycle(self, process: ProcessId) -> bool:
        """QRP2 ground truth: an all-black cycle through ``process``."""
        stack = list(self._black_successors(process))
        visited: set[ProcessId] = set()
        while stack:
            current = stack.pop()
            if current == process:
                return True
            if current in visited:
                continue
            visited.add(current)
            stack.extend(self._black_successors(current))
        return False

    def processes(self) -> set[ProcessId]:
        seen: set[ProcessId] = set()
        for (a, b), _ in self.edges():
            seen.add(a)
            seen.add(b)
        return seen

    def dark_cycle_components(
        self, roots: Iterable[ProcessId] | None = None
    ) -> list[set[ProcessId]]:
        """The cyclic SCCs of the dark subgraph: one Tarjan pass.

        G1-DDB and G3-DDB forbid self-edges, so a process lies on a dark
        cycle exactly when its dark SCC has more than one member.  With
        ``roots`` the pass covers only what they reach along dark edges,
        which still returns each root's own component whole.
        """
        return cyclic_sccs(self._dark_out, roots)

    def processes_on_dark_cycles(self) -> set[ProcessId]:
        """Processes in a cyclic SCC of the dark subgraph."""
        return set().union(*self.dark_cycle_components())

    def deadlocked_transactions(self) -> set[int]:
        """Transactions owning at least one process on a dark cycle."""
        return {p.transaction for p in self.processes_on_dark_cycles()}

    def permanent_black_edges_from(self, process: ProcessId) -> set[ProcessEdge]:
        """Ground truth for the lifted WFGD computation.

        Mirrors :meth:`WaitForGraph.permanent_black_edges_from`: black
        edges reachable from ``process`` along black edges whose targets
        are permanently blocked (reach a dark cycle along dark edges).
        """
        deadlocked = self.processes_on_dark_cycles()
        if not deadlocked:
            return set()
        permanently_blocked = set(deadlocked)
        changed = True
        while changed:
            changed = False
            for (a, b), color in self.edges():
                if (
                    color.is_dark
                    and b in permanently_blocked
                    and a not in permanently_blocked
                ):
                    permanently_blocked.add(a)
                    changed = True
        result: set[ProcessEdge] = set()
        stack = [process]
        seen: set[ProcessId] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for target in self._out.get(current, ()):
                if (
                    self.color(current, target) is EdgeColor.BLACK
                    and target in permanently_blocked
                ):
                    result.add((current, target))
                    stack.append(target)
        return result

    def __repr__(self) -> str:
        return f"DdbWaitForGraph(intra={len(self._intra)}, inter={len(self._inter)})"
