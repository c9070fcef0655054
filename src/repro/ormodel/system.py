"""OR-model system wrapper with its oracle and verification hooks.

Ground truth for the OR model: a blocked process is deadlocked iff no
active process is reachable from it along dependency edges (grants cascade
back from any reachable active process).  This criterion is *stable* for
quiescent channel states; while a grant is in flight it can flip -- which
is why the detector's soundness leans on per-channel FIFO (a dependent's
reply always travels behind any earlier grant on the same channel, so the
grant wipes the initiator's computation first).  The dedicated ablation
test breaks FIFO to demonstrate the dependence.

Verification mirrors :class:`~repro.basic.system.BasicSystem` and shares
its machinery (:mod:`repro.core.engine`):

* every declaration is checked against the oracle criterion at the
  instant it is made;
* at quiescence, every deadlocked vertex must have a declarer inside its
  dependency closure (the "last blocker" argument in the package docs).
  The closure-based check replaces the SCC walk of the AND models, but it
  reports through the same :class:`~repro.core.engine.CompletenessReport`
  shape, so cross-variant harnesses read all three models uniformly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro._ids import ProbeTag, VertexId
from repro.core.assembly import build_runtime, require_fleet
from repro.core.transport import Transport, TransportFactory
from repro.core.engine import CompletenessReport, DeclarationLog
from repro.ormodel.initiation import OrInitiationPolicy
from repro.ormodel.messages import Grant
from repro.ormodel.vertex import OrVertexProcess
from repro.sim.network import DelayModel


class OrWaitGraph:
    """Global oracle: dependent sets plus the OR-deadlock criterion."""

    def __init__(self) -> None:
        self._dependents: dict[VertexId, set[VertexId]] = {}

    def set_dependents(self, vertex: VertexId, dependents: set[VertexId]) -> None:
        if dependents:
            self._dependents[vertex] = set(dependents)
        else:
            self._dependents.pop(vertex, None)

    def dependents(self, vertex: VertexId) -> set[VertexId]:
        return set(self._dependents.get(vertex, ()))

    def is_blocked(self, vertex: VertexId) -> bool:
        return vertex in self._dependents

    def closure(self, vertex: VertexId) -> set[VertexId]:
        """Everything reachable from ``vertex`` along dependency edges."""
        reached: set[VertexId] = set()
        stack = [vertex]
        while stack:
            current = stack.pop()
            for nxt in self._dependents.get(current, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        return reached

    def is_deadlocked(self, vertex: VertexId) -> bool:
        """OR-model deadlock: blocked, and no active vertex reachable."""
        if vertex not in self._dependents:
            return False
        return all(member in self._dependents for member in self.closure(vertex))

    def deadlocked_vertices(self) -> set[VertexId]:
        return {v for v in self._dependents if self.is_deadlocked(v)}

    def __repr__(self) -> str:
        return f"OrWaitGraph(blocked={len(self._dependents)})"


@dataclass(frozen=True)
class OrDeclaration:
    """One OR-model deadlock declaration with its oracle verdict."""

    time: float
    vertex: VertexId
    tag: ProbeTag
    deadlocked: bool


class OrSystem:
    """A ready-to-run OR-model system.

    Parameters parallel :class:`BasicSystem`; ``auto_initiate`` runs a
    query computation the moment a vertex blocks (the section 4.2 rule
    transplanted: the last member of a deadlocked closure to block detects
    it).  Passing ``initiation`` (an
    :class:`~repro.ormodel.initiation.OrInitiationPolicy`) replaces the
    hard-wired rule with a registered scheduling policy -- ``immediate``
    reproduces ``auto_initiate``, ``delayed``/``adaptive`` transplant the
    section 4.3 window.
    """

    def __init__(
        self,
        n_vertices: int,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        service_delay: float = 1.0,
        auto_grant: bool = True,
        auto_initiate: bool = True,
        strict: bool = True,
        trace: bool = True,
        fifo: bool = True,
        transport: Transport | TransportFactory | None = None,
        initiation: OrInitiationPolicy | None = None,
    ) -> None:
        require_fleet(n_vertices, "vertex")
        runtime = build_runtime(
            seed=seed, delay_model=delay_model, trace=trace, fifo=fifo,
            transport=transport,
        )
        self.transport = runtime.transport
        self.simulator = runtime.simulator
        self.network = runtime.network
        self.oracle = OrWaitGraph()
        self.auto_initiate = auto_initiate
        self.initiation = initiation
        self._log: DeclarationLog[OrDeclaration] = DeclarationLog(strict=strict)
        self.declarations = self._log.declarations
        self.soundness_violations = self._log.violations
        #: grants currently in flight, as (granter, grantee) multiset --
        #: needed because the state-only criterion is not stable while a
        #: grant is travelling (its receiver is about to unblock).
        self._grants_in_flight: dict[tuple[VertexId, VertexId], int] = {}
        self.transport.tracer.observe_messages(self._on_net_sent, self._on_net_delivered)
        self.vertices: dict[VertexId, OrVertexProcess] = {}
        for i in range(n_vertices):
            vid = VertexId(i)
            vertex = OrVertexProcess(
                vertex_id=vid,
                oracle=self.oracle,
                service_delay=service_delay,
                auto_grant=auto_grant,
                on_declare=self._handle_declare,
            )
            self.transport.register(vertex)
            if self.initiation is not None:
                vertex.initiation_unblocked = self._on_initiation_unblocked
                self.initiation.setup(vertex)
            self.vertices[vid] = vertex

    # ------------------------------------------------------------------

    def vertex(self, i: int) -> OrVertexProcess:
        return self.vertices[VertexId(i)]

    @property
    def now(self) -> float:
        return self.transport.now

    @property
    def counts(self) -> Counter[str]:
        """The run's event counts (``transport.counts``)."""
        return self.transport.counts

    @property
    def strict(self) -> bool:
        return self._log.strict

    @strict.setter
    def strict(self, value: bool) -> None:
        self._log.strict = value

    def request_any(self, source: int, targets: Iterable[int]) -> None:
        vertex = self.vertex(source)
        vertex.request_any([VertexId(t) for t in targets])
        if self.initiation is not None:
            if vertex.blocked:
                self.initiation.on_vertex_blocked(vertex)
        elif self.auto_initiate:
            vertex.initiate_detection()

    def _on_initiation_unblocked(self, vertex: OrVertexProcess) -> None:
        assert self.initiation is not None
        self.initiation.on_vertex_unblocked(vertex)

    def schedule_request(self, time: float, source: int, targets: Iterable[int]) -> None:
        frozen = list(targets)
        self.transport.schedule_at(
            time,
            lambda: self.request_any(source, frozen),
            name=f"or-request v{source}->{frozen}",
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.transport.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self.transport.run_to_quiescence(max_events=max_events)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def _on_net_sent(
        self, time: float, sender: VertexId, destination: VertexId, message: object
    ) -> None:
        if isinstance(message, Grant):
            key = (sender, destination)
            self._grants_in_flight[key] = self._grants_in_flight.get(key, 0) + 1

    def _on_net_delivered(
        self, time: float, sender: VertexId, destination: VertexId, message: object
    ) -> None:
        if isinstance(message, Grant):
            key = (sender, destination)
            self._grants_in_flight[key] -= 1
            if not self._grants_in_flight[key]:
                del self._grants_in_flight[key]

    def truly_deadlocked(self, vertex: VertexId) -> bool:
        """Channel-aware ground truth: the state criterion holds AND no
        in-flight grant targets the vertex or anything in its closure."""
        if not self.oracle.is_deadlocked(vertex):
            return False
        closure = self.oracle.closure(vertex) | {vertex}
        return not any(
            grantee in closure for (_, grantee) in self._grants_in_flight
        )

    def _handle_declare(self, vertex: OrVertexProcess, tag: ProbeTag) -> None:
        deadlocked = self.truly_deadlocked(vertex.vertex_id)
        declaration = OrDeclaration(
            time=self.now, vertex=vertex.vertex_id, tag=tag, deadlocked=deadlocked
        )
        self._log.record(
            declaration,
            sound=deadlocked,
            complaint=(
                f"OR soundness violated: vertex {vertex.vertex_id} declared at "
                f"t={self.now} but an active vertex is reachable"
            ),
        )

    def assert_soundness(self) -> None:
        self._log.assert_sound("OR soundness violated by: ")

    def completeness_report(self) -> CompletenessReport[VertexId]:
        """Quiescence-time check under the OR criterion.

        A deadlocked vertex's "component" is its dependency closure (plus
        itself); the closure must contain a declarer.  Closures that share
        a declarer are reported once each -- the per-vertex obligation is
        what the "last blocker" argument guarantees.
        """
        declared = {d.vertex for d in self.declarations}
        deadlocked = self.oracle.deadlocked_vertices()
        report: CompletenessReport[VertexId] = CompletenessReport(
            deadlocked_vertices=deadlocked, declared_vertices=declared
        )
        for vertex in sorted(deadlocked):
            closure = self.oracle.closure(vertex) | {vertex}
            if not closure & declared:
                report.undetected_components.append(closure)
        return report

    def assert_completeness(self) -> None:
        """Every deadlocked vertex has a declarer in its closure (or is
        one itself)."""
        declared = {d.vertex for d in self.declarations}
        for vertex in sorted(self.oracle.deadlocked_vertices()):
            closure = self.oracle.closure(vertex) | {vertex}
            if not closure & declared:
                raise AssertionError(
                    f"OR completeness violated: deadlocked vertex {vertex} has no "
                    f"declarer in its closure {sorted(closure)}"
                )

    def __repr__(self) -> str:
        return (
            f"OrSystem(n={len(self.vertices)}, t={self.now}, "
            f"declared={len(self.declarations)})"
        )
