"""Timeout-based deadlock "detection".

The simplest deployed scheme: declare any process blocked continuously
for longer than ``window`` deadlocked.  It needs no messages at all and
never misses a real deadlock (a dark cycle blocks its members forever),
but every long-but-finite wait becomes a false positive -- which is why
the window choice is hopeless under variable load, and why the paper's
exact algorithm matters.  Used as the floor baseline in experiment E8.
"""

from __future__ import annotations

from repro._ids import VertexId
from repro.baselines.base import BaselineDetector
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError
from repro.sim import categories
from repro.sim.trace import TraceEvent


class TimeoutDetector(BaselineDetector):
    """Declare vertices blocked longer than ``window`` deadlocked."""

    name = "timeout"

    def __init__(self, system: BasicSystem, window: float = 20.0) -> None:
        super().__init__(system)
        if window <= 0:
            raise ConfigurationError("window must be positive")
        self.window = window
        #: per-vertex blocking-episode counter (invalidates stale checks)
        self._episode: dict[VertexId, int] = {v: 0 for v in system.vertices}
        self._blocked_since: dict[VertexId, float] = {}

    def start(self) -> None:
        tracer = self.system.transport.tracer
        tracer.subscribe(self._on_request_sent, categories=(categories.BASIC_REQUEST_SENT,))
        tracer.subscribe(self._on_unblocked, categories=(categories.BASIC_UNBLOCKED,))

    # ------------------------------------------------------------------

    def _on_request_sent(self, event: TraceEvent) -> None:
        vertex_id = event["source"]
        if vertex_id not in self._blocked_since:
            self._blocked_since[vertex_id] = event.time
            episode = self._episode[vertex_id]
            self.system.transport.schedule(
                self.window,
                lambda v=vertex_id, e=episode: self._check(v, e),
                name=f"timeout check v{vertex_id}",
            )

    def _on_unblocked(self, event: TraceEvent) -> None:
        vertex_id = event["vertex"]
        self._blocked_since.pop(vertex_id, None)
        self._episode[vertex_id] += 1

    def _check(self, vertex_id: VertexId, episode: int) -> None:
        if self._episode[vertex_id] != episode:
            return  # the episode ended; the wait resolved in time
        if vertex_id in self._blocked_since:
            self._declare(vertex_id)
