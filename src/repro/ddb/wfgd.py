"""The WFGD computation lifted to the DDB model.

Section 5 presents WFGD for the basic model; section 6 notes that the
basic-model machinery transfers ("the proof of the algorithm for the DDB
model is exactly the same...").  This module performs the same lift for
WFGD that section 6.6 performs for the probe computation: *processes* keep
the ``S_p`` edge sets, but *controllers* do the work -- propagation along
intra-controller edges is internal, propagation along inter-controller
edges is a controller-to-controller :class:`DdbWfgdMessage`.

Rules (the exact section 5 rules over process-level edges):

* when a controller declares a local process ``p`` on a black cycle, it
  sends ``{(q, p)}`` toward every black predecessor ``q`` of ``p`` --
  local waiters blocked on resources ``p`` holds (intra edges) and, if
  ``p`` is an agent serving an unanswered remote acquisition, the waiting
  origin process (the incoming black inter edge);
* a process ``p`` receiving ``M`` sets ``S_p := S_p ∪ M`` and pushes
  ``{(q, p)} ∪ S_p`` toward every black predecessor ``q``, never sending
  the same edge set twice toward the same process (termination);
* the persistent-send refinement from the basic model applies: a *new*
  black predecessor of an informed process is informed on arrival.

Like section 5, this assumes the deadlocked portion is stable -- use with
:class:`~repro.ddb.resolution.NoResolution` (victim aborts would
invalidate the propagated sets mid-flight).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._ids import ProcessId

# The wire-format message lives with the rest of the DDB protocol in
# repro.ddb.messages (RPX008: handlers only send classes declared
# there); re-exported here because this module is its natural reading
# context.
from repro.ddb.messages import DdbWfgdMessage, ProcessEdge

if TYPE_CHECKING:  # pragma: no cover
    from repro.ddb.controller import Controller

__all__ = ["DdbWfgdMessage", "DdbWfgdState", "ProcessEdge"]


class DdbWfgdState:
    """Per-controller WFGD bookkeeping for its local processes."""

    def __init__(self, controller: "Controller") -> None:
        self._controller = controller
        #: ``S_p`` for local processes
        self.paths: dict[ProcessId, set[ProcessEdge]] = {}
        #: deduplication: (recipient process) -> edge sets already sent
        self._sent: dict[ProcessId, set[frozenset[ProcessEdge]]] = {}
        #: local processes that declared (seeded) already
        self._seeded: set[ProcessId] = set()

    def knows_deadlocked(self, process: ProcessId) -> bool:
        return process in self._seeded or bool(self.paths.get(process))

    def paths_for(self, process: ProcessId) -> set[ProcessEdge]:
        return set(self.paths.get(process, ()))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def seed(self, process: ProcessId) -> None:
        """Initiator rule: ``process`` was declared on a black cycle."""
        if process in self._seeded:
            return
        self._seeded.add(process)
        self._push_to_predecessors(process)

    def absorb(self, process: ProcessId, edges: frozenset[ProcessEdge]) -> None:
        """Receiver rule for a local ``process``."""
        store = self.paths.setdefault(process, set())
        store |= edges
        self._push_to_predecessors(process)

    def on_new_predecessor(self, predecessor: ProcessId, process: ProcessId) -> None:
        """Persistent-send rule: a black edge (predecessor -> process)
        just appeared and ``process`` already knows it is deadlocked."""
        if self.knows_deadlocked(process):
            self._push(predecessor, process)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _push_to_predecessors(self, process: ProcessId) -> None:
        controller = self._controller
        for predecessor in sorted(controller.intra_predecessors(process)):
            self._push(predecessor, process)
        origin = controller.inter_predecessor(process)
        if origin is not None:
            self._push(origin, process)

    def _push(self, predecessor: ProcessId, process: ProcessId) -> None:
        edges = frozenset({(predecessor, process)}) | frozenset(
            self.paths.get(process, ())
        )
        history = self._sent.setdefault(predecessor, set())
        if edges in history:
            return
        history.add(edges)
        controller = self._controller
        controller.ctx.count("ddb.wfgd.sent")
        if predecessor.site == controller.site:
            # Intra edge: deliver locally (memory-area communication).
            self.absorb(predecessor, edges)
        else:
            controller.send(
                predecessor.site,
                DdbWfgdMessage(destination=predecessor, edges=edges),
            )
