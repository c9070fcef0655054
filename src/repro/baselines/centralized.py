"""Centralized deadlock detection (periodic global WFG collection).

A coordinator polls every vertex each round; vertices answer with their
current outgoing-edge set.  Answers arrive after independent network
delays, so the snapshots composing one round were taken at *different
instants*; the coordinator then runs cycle detection on the union.  This
is the classic centralized scheme the distributed literature (Menasce &
Muntz's centralized variant, Ho & Ramamoorthy's one-phase protocol)
improves on, and its well-known failure mode is visible here: an edge
reported by vertex A early in the round can combine with an edge reported
by vertex B later -- after A's edge was already deleted -- into a cycle
that never existed.  (Ho & Ramamoorthy's two-phase fix re-polls and
intersects; we keep the one-phase variant as the paper-era baseline.)

Cost: 2N messages per round (poll + reply), even when nothing is blocked.
"""

from __future__ import annotations

from repro._algo import cyclic_sccs
from repro._ids import VertexId
from repro.baselines.base import BaselineDetector
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError


class CentralizedDetector(BaselineDetector):
    """Coordinator-based periodic WFG collection.

    Parameters
    ----------
    system:
        The basic-model system to observe.
    period:
        Virtual time between collection rounds.
    horizon:
        No rounds start after this time (bounds the simulation).
    min_delay, max_delay:
        Uniform one-way network delay for polls and replies.
    """

    name = "centralized"

    def __init__(
        self,
        system: BasicSystem,
        period: float = 10.0,
        horizon: float = 100.0,
        min_delay: float = 0.5,
        max_delay: float = 2.0,
    ) -> None:
        super().__init__(system)
        if period <= 0:
            raise ConfigurationError("period must be positive")
        if not 0 <= min_delay <= max_delay:
            raise ConfigurationError("need 0 <= min_delay <= max_delay")
        self.period = period
        self.horizon = horizon
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.rounds_completed = 0

    def start(self) -> None:
        self._start_rounds(self._begin_round, "centralized round")

    # ------------------------------------------------------------------

    def _delay(self) -> float:
        return self._rng.uniform(self.min_delay, self.max_delay)

    def _begin_round(self) -> None:
        vertices = list(self.system.vertices)
        # Poll + reply for every vertex.
        self._charge_messages(2 * len(vertices))
        round_state: dict[VertexId, set[VertexId]] = {}
        expected = len(vertices)

        def snapshot(vertex_id: VertexId) -> None:
            # The poll has arrived at the vertex: it reports its current
            # outgoing edges (P3 local knowledge) as of *this* instant.
            edges = set(self.system.vertices[vertex_id].pending_out)

            def deliver_report() -> None:
                round_state[vertex_id] = edges
                if len(round_state) == expected:
                    self._evaluate(round_state)

            self.system.transport.schedule(
                self._delay(), deliver_report, name="centralized report"
            )

        for vertex_id in vertices:
            self.system.transport.schedule(
                self._delay(),
                lambda vertex_id=vertex_id: snapshot(vertex_id),
                name="centralized poll",
            )

    def _evaluate(self, round_state: dict[VertexId, set[VertexId]]) -> None:
        self.rounds_completed += 1
        adjacency = {vertex: sorted(targets) for vertex, targets in round_state.items()}
        for component in cyclic_sccs(adjacency):
            for vertex in sorted(component):
                self._declare(vertex)
