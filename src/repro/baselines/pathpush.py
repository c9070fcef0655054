"""Path-pushing deadlock detection (Obermarck style, reference [7]).

Obermarck's R* algorithm has each site periodically send the wait-for
*paths* it knows about to the sites its transactions wait toward; a site
seeing a path that returns to one of its own transactions declares a
deadlock.  We adapt the scheme from sites to basic-model vertices:

* each vertex ``v`` keeps a set of paths (vertex tuples) that it believes
  currently end at ``v``;
* periodically, every blocked vertex extends each of its paths (and the
  trivial path ``(v,)``) with each successor ``w`` and sends the result
  to ``w`` (one message per path per successor, deduplicated);
* a vertex receiving a path in which it already appears declares a cycle.

The known defect is inherited faithfully: path fragments are relayed with
delays, so a fragment can describe edges that no longer exist by the time
it closes a "cycle" -- phantom deadlocks under churn (Gligor & Shattuck's
critique, and the reason the probe computation re-validates at every hop
via the meaningful-probe rule instead of trusting forwarded state).
"""

from __future__ import annotations

from repro._ids import VertexId
from repro.baselines.base import BaselineDetector
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError

Path = tuple[VertexId, ...]


class PathPushingDetector(BaselineDetector):
    """Periodic path propagation along wait-for edges.

    Parameters mirror :class:`CentralizedDetector`; ``max_path_length``
    caps relayed paths (Obermarck caps by the number of sites).
    """

    name = "pathpush"

    def __init__(
        self,
        system: BasicSystem,
        period: float = 10.0,
        horizon: float = 100.0,
        min_delay: float = 0.5,
        max_delay: float = 2.0,
        max_path_length: int | None = None,
    ) -> None:
        super().__init__(system)
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.period = period
        self.horizon = horizon
        self.min_delay = min_delay
        self.max_delay = max_delay
        # A path that closes an N-cycle carries N+1 entries (the repeated
        # vertex appears at both ends), so the default cap is N+1.
        self.max_path_length = (
            max_path_length if max_path_length is not None else len(system.vertices) + 1
        )
        #: paths each vertex believes end at it
        self._paths: dict[VertexId, set[Path]] = {v: set() for v in system.vertices}
        #: (sender, path, receiver) triples already transmitted
        self._sent: set[tuple[VertexId, Path, VertexId]] = set()

    def start(self) -> None:
        self._start_rounds(self._round, "pathpush round")

    # ------------------------------------------------------------------

    def _round(self) -> None:
        for vertex_id, vertex in sorted(self.system.vertices.items()):
            if not vertex.blocked:
                # An active vertex's stored paths are stale; drop them
                # (its waits resolved, so chains through it broke).
                self._paths[vertex_id].clear()
                continue
            outgoing = sorted(vertex.pending_out)
            candidates = {(vertex_id,)} | {
                path for path in self._paths[vertex_id] if len(path) < self.max_path_length
            }
            for successor in outgoing:
                for path in sorted(candidates):
                    key = (vertex_id, path, successor)
                    if key in self._sent:
                        continue
                    self._sent.add(key)
                    self._charge_messages(1)
                    extended = path + (successor,)
                    self.system.transport.schedule(
                        self._rng.uniform(self.min_delay, self.max_delay),
                        lambda succ=successor, ext=extended: self._receive(succ, ext),
                        name="pathpush message",
                    )

    def _receive(self, vertex_id: VertexId, path: Path) -> None:
        assert path[-1] == vertex_id
        if vertex_id in path[:-1]:
            # The path returned to a vertex it already contains: the
            # detector believes it found a cycle.
            self._declare(vertex_id)
            return
        self._paths[vertex_id].add(path)
