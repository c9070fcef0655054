"""Simulator-backed implementation of the transport seam.

:class:`SimTransport` adapts the deterministic discrete-event pair
(:class:`~repro.sim.simulator.Simulator` +
:class:`~repro.sim.network.Network`) to the structural
:class:`~repro.core.transport.Transport` contract, and
:class:`SimNodeContext` is the per-node capability view
(:class:`~repro.core.transport.NodeContext`) the network attaches at
registration.

Both are pure 1:1 delegation -- same RNG streams, same event names, same
metric/trace records, same scheduling order -- so a system assembled
through the seam is byte-identical to one wired against the simulator
directly.  The sweep baseline's grid shape hashes enforce this.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any

from repro.sim.events import EventHandle
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime cycle guard)
    from repro.core.transport import MessageProcess, NodeContext


class SimNodeContext:
    """Per-node capability view over one simulator/network pair."""

    __slots__ = ("_network", "_node_id", "_simulator")

    def __init__(self, node_id: Hashable, simulator: Simulator, network: Network) -> None:
        self._node_id = node_id
        self._simulator = simulator
        self._network = network

    @property
    def node_id(self) -> Hashable:
        return self._node_id

    def send(self, destination: Hashable, message: Any) -> None:
        self._network.send(self._node_id, destination, message)

    def now(self) -> float:
        return self._simulator.clock.now

    def set_timer(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> EventHandle:
        return self._simulator.schedule(delay, callback, name)

    def trace(self, category: str, **details: object) -> None:
        simulator = self._simulator
        tracer = simulator.tracer
        if category in tracer.routes:
            tracer.record(simulator.clock.now, category, **details)

    def counter(self, name: str) -> Counter:
        return self._simulator.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self._simulator.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self._simulator.metrics.histogram(name)

    def __repr__(self) -> str:
        return f"SimNodeContext({self._node_id!r})"


class SimTransport:
    """The discrete-event backend of the transport contract.

    P4 holds by construction: :class:`~repro.sim.network.Network` clamps
    per-channel delivery times to be strictly increasing, and the
    single-threaded event loop runs every handler to completion (the
    atomicity note).  Determinism is the bonus the live backend does not
    offer: runs are a pure function of the seed.
    """

    name = "sim"

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self.simulator = simulator
        self.network = network

    # -- observation registries ----------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self.simulator.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return self.simulator.metrics

    @property
    def rng(self) -> RngRegistry:
        return self.simulator.rng

    # -- nodes ---------------------------------------------------------

    def register(self, process: "MessageProcess") -> "NodeContext":
        self.network.register(process)
        # Network.register attached the context; hand it back.
        return process.ctx  # type: ignore[attr-defined, no-any-return]

    def process(self, pid: Hashable) -> "MessageProcess":
        return self.network.process(pid)

    # -- clock & scheduling --------------------------------------------

    @property
    def now(self) -> float:
        return self.simulator.clock.now

    def schedule(
        self, delay: float, action: Callable[[], None], name: str = ""
    ) -> EventHandle:
        return self.simulator.schedule(delay, action, name)

    def schedule_at(
        self, time: float, action: Callable[[], None], name: str = ""
    ) -> EventHandle:
        return self.simulator.schedule_at(time, action, name)

    # -- running -------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        return not self.simulator.queue

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.simulator.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self.simulator.run_to_quiescence(max_events=max_events)

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 1_000_000
    ) -> bool:
        """Step events until ``predicate()`` holds.

        Returns True the moment the predicate is satisfied (checked before
        each event), False when the simulation quiesces or the event
        budget runs out first.
        """
        executed = 0
        while not predicate():
            if executed >= max_events or not self.simulator.step():
                return False
            executed += 1
        return True

    def close(self) -> None:
        """Nothing to release; present for contract symmetry."""

    def __repr__(self) -> str:
        return f"SimTransport(t={self.now}, nodes={len(self.network.process_ids)})"
