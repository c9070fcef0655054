"""Snapshot-based deadlock detection (Chandy & Lamport 1985).

The centralized baseline's phantom problem is snapshot inconsistency:
per-vertex states recorded at different instants can compose into a cycle
that never existed.  The fix -- published by this paper's first author
three years later -- is the marker algorithm for **consistent global
snapshots**: since deadlock is a *stable* property, any deadlock visible
in a consistent snapshot genuinely existed when the snapshot completed,
so detection on snapshots is phantom-free by construction.

Protocol (markers ride the same FIFO channels as the computation):

* the initiating vertex records its local state (its outgoing wait-for
  edges) and sends a marker on its channel to every other vertex;
* on its *first* marker, a vertex records its state, starts recording
  every incoming channel, and sends markers to everyone;
* a marker arriving on a channel closes that channel's recording; the
  messages recorded on channel (j, i) are those delivered after i's state
  record and before j's marker;
* when every vertex has recorded and every channel is closed, the states
  are assembled (one report message per vertex, as in the centralized
  scheme).

Deadlock evaluation on the cut: include edge (i, j) iff j is in i's
recorded outgoing set and no reply from j appears in the recorded channel
(j, i) -- an in-flight reply means the edge was white at the cut, and a
white edge cannot be part of a (stable) deadlock.  Cycles over the
remaining (dark-at-the-cut) edges are real deadlocks.

Cost: N*(N-1) markers plus N reports per snapshot round, against the probe
computation's one-probe-per-edge-per-blocked-computation -- correctness
equal, price higher, which is exactly where the paper's algorithm sits in
the design space (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._algo import cyclic_sccs
from repro._ids import VertexId
from repro.baselines.base import BaselineDetector
from repro.basic.messages import Reply
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Marker:
    """The Chandy-Lamport marker for snapshot round ``round_id``."""

    round_id: int


@dataclass
class _RoundState:
    """Bookkeeping for one in-progress snapshot round."""

    round_id: int
    #: vertex -> recorded outgoing edges (state record)
    states: dict[VertexId, frozenset] = field(default_factory=dict)
    #: (source, target) -> recorded in-flight messages
    channels: dict[tuple[VertexId, VertexId], list] = field(default_factory=dict)
    #: channels whose marker has arrived
    closed: set[tuple[VertexId, VertexId]] = field(default_factory=set)
    complete: bool = False


class SnapshotDetector(BaselineDetector):
    """Periodic consistent-snapshot deadlock detection.

    Markers travel through the vertices' own network channels (via the
    vertex ``foreign_handler`` hook) so the FIFO interleaving with
    requests and replies is exactly the algorithm's requirement.
    """

    name = "snapshot"

    def __init__(
        self,
        system: BasicSystem,
        period: float = 10.0,
        horizon: float = 100.0,
        initiator: int = 0,
    ) -> None:
        super().__init__(system)
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.period = period
        self.horizon = horizon
        self.initiator = VertexId(initiator)
        self._round: _RoundState | None = None
        self._next_round_id = 1
        self.rounds_completed = 0
        for vertex in system.vertices.values():
            vertex.foreign_handler = self._make_handler(vertex.vertex_id)
        system.transport.tracer.observe_messages(on_delivered=self._observe_delivery)

    def start(self) -> None:
        self._start_rounds(self._begin_round, "snapshot")

    # ------------------------------------------------------------------
    # Round orchestration
    # ------------------------------------------------------------------

    def _all_vertices(self) -> list[VertexId]:
        return sorted(self.system.vertices)

    def _begin_round(self) -> None:
        if self._round is None or self._round.complete:
            round_state = _RoundState(round_id=self._next_round_id)
            self._next_round_id += 1
            self._round = round_state
            self._record_state(self.initiator)
            self._emit_markers(self.initiator)

    def _record_state(self, vertex_id: VertexId) -> None:
        assert self._round is not None
        vertex = self.system.vertices[vertex_id]
        self._round.states[vertex_id] = frozenset(vertex.pending_out)
        for other in self._all_vertices():
            if other != vertex_id:
                self._round.channels.setdefault((other, vertex_id), [])

    def _emit_markers(self, vertex_id: VertexId) -> None:
        assert self._round is not None
        vertex = self.system.vertices[vertex_id]
        for other in self._all_vertices():
            if other != vertex_id:
                self._charge_messages(1)
                vertex.send(other, Marker(round_id=self._round.round_id))

    def _make_handler(self, vertex_id: VertexId):
        def handle(sender: VertexId, message: object) -> bool:
            if not isinstance(message, Marker):
                return False
            round_state = self._round
            if round_state is None or message.round_id != round_state.round_id:
                return True  # stale marker of a finished round
            if vertex_id not in round_state.states:
                self._record_state(vertex_id)
                self._emit_markers(vertex_id)
            round_state.closed.add((sender, vertex_id))
            self._maybe_complete()
            return True

        return handle

    def _observe_delivery(
        self, time: float, sender: VertexId, destination: VertexId, message: object
    ) -> None:
        round_state = self._round
        if round_state is None or round_state.complete:
            return
        if isinstance(message, Marker):
            return
        key = (sender, destination)
        if (
            destination in round_state.states
            and key in round_state.channels
            and key not in round_state.closed
        ):
            round_state.channels[key].append(message)

    def _maybe_complete(self) -> None:
        round_state = self._round
        assert round_state is not None
        n = len(self._all_vertices())
        if len(round_state.states) < n or len(round_state.closed) < n * (n - 1):
            return
        round_state.complete = True
        self.rounds_completed += 1
        # Assemble: every vertex reports its cut fragment to the collector.
        self._charge_messages(n)
        self._evaluate(round_state)

    # ------------------------------------------------------------------
    # Evaluation on the consistent cut
    # ------------------------------------------------------------------

    def _evaluate(self, round_state: _RoundState) -> None:
        adjacency: dict[VertexId, list[VertexId]] = {}
        for vertex_id, outgoing in round_state.states.items():
            for target in outgoing:
                recorded = round_state.channels.get((target, vertex_id), [])
                if any(
                    isinstance(message, Reply) and message.replier == target
                    for message in recorded
                ):
                    continue  # white at the cut: the reply was in flight
                adjacency.setdefault(vertex_id, []).append(target)
        for component in cyclic_sccs(adjacency):
            for vertex in sorted(component):
                self._declare(vertex)
