"""System wrapper for the basic model: wiring plus on-line verification.

:class:`BasicSystem` assembles a simulator, a FIFO network, ``n`` vertex
processes, the oracle graph, and an initiation policy, and installs trace
subscribers that verify the paper's two theorems while the simulation runs:

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

The verification bookkeeping itself (declaration log, completeness check,
probe accounting) lives in :mod:`repro.core.engine`, shared with the other
detector variants; this wrapper contributes the basic-model oracle queries
and message wiring.  It also keeps the per-computation probe counts that
experiment E3 reads.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro._ids import ProbeTag, VertexId
from repro.basic.graph import WaitForGraph
from repro.basic.initiation import ImmediateInitiation, InitiationPolicy
from repro.basic.messages import Probe
from repro.basic.vertex import VertexProcess
from repro.core.assembly import build_runtime, require_fleet
from repro.core.transport import Transport, TransportFactory
from repro.core.engine import (
    CompletenessReport,
    DeclarationLog,
    ProbeAccounting,
    completeness_report,
    dark_components,
)
from repro.sim import categories
from repro.sim.network import DelayModel
from repro.sim.trace import TraceEvent

__all__ = ["BasicSystem", "CompletenessReport", "Declaration"]


@dataclass(frozen=True)
class Declaration:
    """One deadlock declaration (step A1) with its soundness verdict."""

    time: float
    vertex: VertexId
    tag: ProbeTag
    on_black_cycle: bool


class BasicSystem:
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
        runtime = build_runtime(
            seed=seed, delay_model=delay_model, trace=trace, fifo=fifo,
            transport=transport,
        )
        self.transport = runtime.transport
        self.simulator = runtime.simulator
        self.network = runtime.network
        self.oracle = WaitForGraph()
        self.initiation = initiation if initiation is not None else ImmediateInitiation()
        self.wfgd_on_declare = wfgd_on_declare
        self._log: DeclarationLog[Declaration] = DeclarationLog(strict=strict)
        #: every declaration, sound or not (alias into the shared log).
        self.declarations = self._log.declarations
        self.soundness_violations = self._log.violations
        #: Virtual time at which each vertex first joined a dark cycle.
        self.deadlock_formed_at: dict[VertexId, float] = {}
        self._probes = ProbeAccounting()
        #: Probes sent per computation tag (experiment E3).
        self.probes_per_computation = self._probes.per_computation

        self.vertices: dict[VertexId, VertexProcess] = {}
        for i in range(n_vertices):
            vid = VertexId(i)
            vertex = VertexProcess(
                vertex_id=vid,
                oracle=self.oracle,
                service_delay=service_delay,
                auto_reply=auto_reply,
                on_declare=self._handle_declare,
            )
            vertex.initiation = self.initiation
            self.transport.register(vertex)
            self.vertices[vid] = vertex

        # One category-scoped subscription: with trace=False every *other*
        # category then stays out of the tracer's routes and costs its
        # producer one membership test, which is most of the win of
        # running big sweeps untraced.  Probes are counted as messages.
        tracer = self.transport.tracer
        tracer.subscribe(self._on_request_sent, categories=(categories.BASIC_REQUEST_SENT,))
        tracer.observe_messages(on_sent=self._on_message_sent)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def vertex(self, i: int) -> VertexProcess:
        return self.vertices[VertexId(i)]

    @property
    def now(self) -> float:
        return self.transport.now

    @property
    def counts(self) -> Counter[str]:
        """The run's event counts (``transport.counts``)."""
        return self.transport.counts

    @property
    def detection_latencies(self) -> list[float]:
        """Each declaration's time minus the time its vertex first joined a
        dark cycle, in declaration order (E5's dependent variable).  A
        declaration made before its vertex's deadlock formed has none."""
        formed_at = self.deadlock_formed_at
        return [
            d.time - formed
            for d in self.declarations
            if (formed := formed_at.get(d.vertex)) is not None and formed <= d.time
        ]

    @property
    def probes_sent(self) -> int:
        """Probes sent over the run, from :attr:`probes_per_computation`."""
        return self._probes.sent()

    @property
    def strict(self) -> bool:
        return self._log.strict

    @strict.setter
    def strict(self, value: bool) -> None:
        self._log.strict = value

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def request(self, source: int, targets: Iterable[int]) -> None:
        """Issue a request batch immediately (only valid at time 0 or from
        inside a scheduled event)."""
        self.vertex(source).request([VertexId(t) for t in targets])

    def schedule_request(self, time: float, source: int, targets: Sequence[int]) -> None:
        """Schedule a request batch at absolute virtual ``time``."""
        frozen = [VertexId(t) for t in targets]
        self.transport.schedule_at(
            time,
            lambda: self.vertex(source).request(frozen),
            name=f"request v{source}->{list(targets)}",
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.transport.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self.transport.run_to_quiescence(max_events=max_events)

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

    def _on_request_sent(self, event: TraceEvent) -> None:
        source = event.details["source"]
        if self.oracle.is_on_dark_cycle(source):
            cycle = self.oracle.find_dark_cycle(source) or [source]
            for member in cycle:
                self.deadlock_formed_at.setdefault(member, event.time)

    def _on_message_sent(
        self, time: float, sender: VertexId, destination: VertexId, message: object
    ) -> None:
        if isinstance(message, Probe):
            self._probes.count(message.tag)

    # ------------------------------------------------------------------
    # Quiescence-time checks
    # ------------------------------------------------------------------

    def _dark_sccs(self) -> list[set[VertexId]]:
        """Strongly connected components of the dark subgraph that contain a
        cycle (size > 1; the graph has no self-loops)."""
        return dark_components(self.oracle.dark_edges())

    def completeness_report(self) -> CompletenessReport[VertexId]:
        """Check Theorem 1 + the section 4.2 initiation rule at quiescence.

        Every cyclic SCC of the dark subgraph must contain at least one
        vertex that declared deadlock.
        """
        return completeness_report(
            self.oracle.dark_edges(),
            declared={d.vertex for d in self.declarations},
            deadlocked=self.oracle.vertices_on_dark_cycles(),
        )

    def assert_completeness(self) -> None:
        report = self.completeness_report()
        if not report.complete:
            raise AssertionError(
                f"QRP1 violated: dark components {report.undetected_components} "
                f"contain no vertex that declared deadlock"
            )

    def assert_soundness(self) -> None:
        self._log.assert_sound("QRP2 violated by declarations: ")

    def __repr__(self) -> str:
        return (
            f"BasicSystem(n={len(self.vertices)}, t={self.now}, "
            f"declared={len(self.declarations)})"
        )
