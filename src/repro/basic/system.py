"""System wrapper for the basic model: wiring plus on-line verification.

:class:`BasicSystem` assembles a simulator, a FIFO network, ``n`` vertex
processes, the oracle graph, and an initiation policy, and verifies the
paper's two theorems while the simulation runs:

* **Soundness (QRP2 / Theorem 2):** at the instant any vertex declares "I am
  on a black cycle", the oracle is consulted; if the vertex is not on an
  all-black cycle at that exact moment, a violation is recorded (and raised
  in strict mode).  Across the entire test suite and all benchmarks this
  list stays empty -- the paper's "deadlocks will not be reported falsely".
* **Completeness (QRP1 / Theorem 1 + section 4.2 initiation rule):** the
  system records the instant each vertex first joins a dark cycle; at
  quiescence, :meth:`assert_completeness` checks that every strongly
  connected component of the dark subgraph that contains a cycle also
  contains at least one vertex that declared.

The verification bookkeeping itself (runtime, declaration log, probe
accounting, the theorem assertions) lives in
:class:`~repro.core.assembly.ProbeSystem`, shared with the DDB model; this
wrapper contributes the basic-model oracle queries and vertex wiring.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro._ids import ProbeTag, VertexId
from repro.basic.graph import WaitForGraph
from repro.basic.initiation import ImmediateInitiation, InitiationPolicy
from repro.basic.messages import Probe
from repro.basic.vertex import VertexProcess
from repro.core.assembly import ProbeSystem, require_fleet
from repro.core.engine import CompletenessReport, dark_components
from repro.core.transport import Transport, TransportFactory
from repro.sim.network import DelayModel

__all__ = ["BasicSystem", "CompletenessReport", "Declaration"]


@dataclass(frozen=True)
class Declaration:
    """One deadlock declaration (step A1) with its soundness verdict."""

    time: float
    vertex: VertexId
    tag: ProbeTag
    on_black_cycle: bool


class BasicSystem(ProbeSystem[Declaration, VertexId]):
    """A ready-to-run basic-model system.

    Parameters
    ----------
    n_vertices:
        Number of processes; ids are ``0 .. n_vertices - 1``.
    seed:
        Root seed for all randomness.
    delay_model:
        Network delay distribution (default: fixed delay 1.0).
    service_delay:
        Delay before an active vertex replies to a pending request.
    auto_reply:
        Whether vertices service requests automatically.
    initiation:
        The initiation policy shared by all vertices (default:
        :class:`ImmediateInitiation`, the section 4.2 rule).
    wfgd_on_declare:
        Start the section 5 WFGD computation automatically whenever a
        vertex declares deadlock.
    strict:
        Raise immediately on a soundness violation instead of recording it.
    trace:
        Record the full structured trace (disable for big sweeps).
    fifo:
        Channel FIFO guarantee; disable only in ablation tests.
    transport:
        Runtime backend (instance or factory); ``None`` selects the
        deterministic simulator.  See :func:`repro.core.assembly.build_runtime`.
    """

    model = "basic"
    probe_message = Probe
    declarer = attrgetter("vertex")
    oracle: WaitForGraph

    def __init__(
        self,
        n_vertices: int,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        service_delay: float = 1.0,
        auto_reply: bool = True,
        initiation: InitiationPolicy | None = None,
        wfgd_on_declare: bool = False,
        strict: bool = True,
        trace: bool = True,
        fifo: bool = True,
        transport: Transport | TransportFactory | None = None,
    ) -> None:
        require_fleet(n_vertices, "vertex")
        super().__init__(
            seed=seed, delay_model=delay_model, trace=trace, fifo=fifo,
            transport=transport, strict=strict,
        )
        self.oracle = WaitForGraph()
        self.initiation = initiation if initiation is not None else ImmediateInitiation()
        self.wfgd_on_declare = wfgd_on_declare

        self.vertices: dict[VertexId, VertexProcess] = {}
        for i in range(n_vertices):
            vid = VertexId(i)
            vertex = VertexProcess(
                vertex_id=vid,
                oracle=self.oracle,
                service_delay=service_delay,
                auto_reply=auto_reply,
                on_declare=self._handle_declare,
                on_edge_added=self.stamp_formation,
            )
            vertex.initiation = self.initiation
            self.transport.register(vertex)
            self.vertices[vid] = vertex

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def vertex(self, i: int) -> VertexProcess:
        return self.vertices[VertexId(i)]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def schedule_request(self, time: float, source: int, targets: Sequence[int]) -> None:
        """Schedule a request batch at absolute virtual ``time``."""
        frozen = [VertexId(t) for t in targets]
        self.transport.schedule_at(
            time,
            lambda: self.vertex(source).request(frozen),
            name=f"request v{source}->{list(targets)}",
        )

    # ------------------------------------------------------------------
    # On-line verification
    # ------------------------------------------------------------------

    def _handle_declare(self, vertex: VertexProcess, tag: ProbeTag) -> None:
        on_black = self.oracle.is_on_black_cycle(vertex.vertex_id)
        declaration = Declaration(
            time=self.transport.now,
            vertex=vertex.vertex_id,
            tag=tag,
            on_black_cycle=on_black,
        )
        self._log.record(
            declaration,
            sound=on_black,
            complaint=(
                f"QRP2 violated: vertex {vertex.vertex_id} declared deadlock at "
                f"t={self.transport.now} but is not on a black cycle"
            ),
        )
        if self.wfgd_on_declare:
            vertex.wfgd.start_as_initiator()

    def stamp_formation(self, source: VertexId, target: VertexId) -> None:
        """Record when each vertex first joins a dark cycle.

        A vertex calls this right after it adds the oracle edge
        ``source -> target`` for a request.  Edges are dark when added, so
        a new dark cycle runs through ``source``; the walk stamps the one
        cycle :meth:`~repro.basic.graph.WaitForGraph.find_dark_cycle`
        finds from it.
        """
        oracle = self.oracle
        if oracle.is_on_dark_cycle(source):
            now = self.transport.now
            formed_at = self.deadlock_formed_at
            for member in oracle.find_dark_cycle(source) or [source]:
                formed_at.setdefault(member, now)

    # ------------------------------------------------------------------
    # Quiescence-time checks
    # ------------------------------------------------------------------

    def _dark_sccs(self) -> list[set[VertexId]]:
        """Strongly connected components of the dark subgraph that contain a
        cycle (size > 1; the graph has no self-loops)."""
        return dark_components(self.oracle.dark_edges())

    def __repr__(self) -> str:
        return (
            f"BasicSystem(n={len(self.vertices)}, t={self.now}, "
            f"declared={len(self.declarations)})"
        )
