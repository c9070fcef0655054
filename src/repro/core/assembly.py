"""Shared system assembly: the pluggable node runtime and the system base.

Every variant's system wrapper opens the same way -- validate the fleet
size, build a runtime, register its nodes.  :func:`build_runtime`
centralises the construction and makes the backend pluggable through the
:class:`~repro.core.transport.Transport` seam:

* by default it assembles the deterministic simulator pair wrapped in a
  :class:`~repro.sim.transport.SimTransport`.  The order is load-bearing:
  the network draws its delay streams from the simulator's root RNG, so
  building the simulator first (and exactly once) is what makes a run a
  pure function of its seed;
* given ``transport=``, it accepts either a ready
  :class:`~repro.core.transport.Transport` instance or a factory
  (typically a transport class, e.g.
  ``repro.live.transport.AsyncioTransport``) called with the same
  ``seed``/``delay_model``/``trace``/``fifo`` knobs.  Factories keep this
  module free of any driver-tier import: callers hand the backend in,
  core never reaches up for one.

:class:`ProtocolSystem` is the base of the three protocol system wrappers;
:class:`ProbeSystem` adds what the two probe models (basic, DDB) share and
the OR model lacks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any, ClassVar, Generic, Protocol, TypeVar

from repro.core.conformance import ConformanceOutcome
from repro.core.engine import (
    CompletenessReport,
    DeclarationLog,
    Node,
    ProbeAccounting,
    completeness_report,
)
from repro.core.transport import Transport, TransportFactory
from repro.errors import ConfigurationError
from repro.sim.network import DelayModel, Network
from repro.sim.simulator import Simulator
from repro.sim.transport import SimTransport


@dataclass(frozen=True)
class Runtime:
    """The substrate a system wrapper builds on.

    ``simulator``/``network`` are populated only for the simulator
    backend (harness layers -- profiling, ablation hooks -- reach them
    there); transport-neutral code uses ``transport`` alone.
    """

    transport: Transport
    simulator: Simulator | None = None
    network: Network | None = None


def build_runtime(
    *,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    trace: bool = True,
    fifo: bool = True,
    transport: Transport | TransportFactory | None = None,
) -> Runtime:
    """Build the runtime every variant shares.

    ``trace=False`` is the big-sweep fast path (a category nobody
    subscribed to costs its producer one route-table test);
    ``fifo=False`` exists only for the ablation tests that demonstrate
    the algorithm's dependence on per-channel FIFO.
    ``transport`` selects the backend: ``None`` for the deterministic
    simulator, an instance to adopt as-is, or a factory called with the
    knobs above.
    """
    if transport is None:
        simulator = Simulator(seed=seed, trace=trace)
        network = Network(simulator, delay_model=delay_model, fifo=fifo)
        return Runtime(
            transport=SimTransport(simulator, network),
            simulator=simulator,
            network=network,
        )
    if isinstance(transport, SimTransport):
        return Runtime(
            transport=transport,
            simulator=transport.simulator,
            network=transport.network,
        )
    if not isinstance(transport, type) and isinstance(transport, Transport):
        return Runtime(transport=transport)
    built = transport(seed=seed, delay_model=delay_model, trace=trace, fifo=fifo)
    if isinstance(built, SimTransport):
        return Runtime(
            transport=built, simulator=built.simulator, network=built.network
        )
    return Runtime(transport=built)


def require_fleet(count: int, noun: str) -> None:
    """Reject empty fleets with the per-model message (vertex / site)."""
    if count < 1:
        raise ConfigurationError(f"need at least one {noun}, got {count}")


class Declared(Protocol):
    """What the base reads off a model's declaration record."""

    @property
    def time(self) -> float: ...


DeclarationT = TypeVar("DeclarationT", bound=Declared)


class ProtocolSystem(Generic[DeclarationT, Node]):
    """One model's processes on one runtime, checked against its oracle.

    A subclass registers its processes, records each step A1 firing through
    ``self._log`` with the oracle's verdict at that instant (QRP2), and
    answers :meth:`completeness_report` (QRP1).  ``strict`` raises at an
    unsound declaration instead of only recording it.
    """

    #: the registry model this system runs (``VariantCapabilities.model``).
    model: ClassVar[str]

    def __init__(
        self,
        *,
        seed: int,
        delay_model: DelayModel | None,
        trace: bool,
        fifo: bool,
        transport: Transport | TransportFactory | None,
        strict: bool,
    ) -> None:
        runtime = build_runtime(
            seed=seed, delay_model=delay_model, trace=trace, fifo=fifo,
            transport=transport,
        )
        self.transport = runtime.transport
        self.simulator = runtime.simulator
        self.network = runtime.network
        self._log: DeclarationLog[DeclarationT] = DeclarationLog(strict=strict)
        #: every declaration, sound or not (alias into the shared log).
        self.declarations = self._log.declarations
        #: the declarations that failed the oracle criterion when made.
        self.soundness_violations = self._log.violations

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

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.transport.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self.transport.run_to_quiescence(max_events=max_events)

    def completeness_report(self) -> CompletenessReport[Node]:
        """QRP1 at quiescence: every deadlock of the model has a declarer."""
        raise NotImplementedError

    def assert_soundness(self) -> None:
        self._log.assert_sound(f"{self.model} soundness (QRP2) violated by: ")

    def assert_completeness(self) -> None:
        report = self.completeness_report()
        if not report.complete:
            raise AssertionError(
                f"{self.model} completeness (QRP1) violated: components "
                f"{report.undetected_components} contain no declarer"
            )

    def outcome(self, variant: str, scenario: str) -> ConformanceOutcome:
        """Fold the finished run into its model-independent summary."""
        report = self.completeness_report()
        declarations = self.declarations
        return ConformanceOutcome(
            variant=variant,
            scenario=scenario,
            declarations=len(declarations),
            soundness_violations=len(self.soundness_violations),
            complete=report.complete,
            undetected_components=len(report.undetected_components),
            first_declaration_at=declarations[0].time if declarations else None,
        )


class ProbeSystem(ProtocolSystem[DeclarationT, Node]):
    """A protocol system whose detector sends section 4 probes.

    Probes are counted once per computation tag, from the tracer's message
    channel (E3).  :attr:`deadlock_formed_at` is filled by the subclass's
    ``stamp_formation``, which its processes call right after they add an
    oracle edge.
    """

    #: the model's probe message type.
    probe_message: ClassVar[type]
    #: reads the node a declaration names (an ``attrgetter``, which a
    #: class attribute holds without binding it as a method).
    declarer: ClassVar[Callable[[Any], Any]]
    #: the model's wait-for graph, kept for verification only.
    oracle: Any

    def __init__(self, **runtime: Any) -> None:
        super().__init__(**runtime)
        #: Virtual time at which each node first joined a dark cycle.
        self.deadlock_formed_at: dict[Node, float] = {}
        self._probes = ProbeAccounting()
        #: Probes sent per computation tag (experiment E3).
        self.probes_per_computation = self._probes.per_computation
        self.transport.tracer.observe_messages(on_sent=self._on_message_sent)

    @property
    def probes_sent(self) -> int:
        """Probes sent over the run, from :attr:`probes_per_computation`."""
        return self._probes.sent()

    @property
    def detection_latencies(self) -> list[float]:
        """Each declaration's time minus the time its node first joined a
        dark cycle, in declaration order (E5's dependent variable).  A
        declaration made before its node's deadlock formed has none."""
        formed_at = self.deadlock_formed_at
        declarer = self.declarer
        return [
            d.time - formed
            for d in self.declarations
            if (formed := formed_at.get(declarer(d))) is not None and formed <= d.time
        ]

    def completeness_report(self) -> CompletenessReport[Node]:
        """Check Theorem 1 + the section 4.2 initiation rule at quiescence.

        Every cyclic SCC of the dark subgraph must contain at least one
        node that declared deadlock.
        """
        declarer = self.declarer
        return completeness_report(
            self.oracle.dark_edges(), {declarer(d) for d in self.declarations}
        )

    def _on_message_sent(
        self, time: float, sender: Hashable, destination: Hashable, message: Any
    ) -> None:
        if isinstance(message, self.probe_message):
            self._probes.count(message.tag)
