"""FIFO message network with pluggable delay models.

The paper's only communication assumptions (section 2.4 / P4) are:

1. every message is received correctly, after an arbitrary finite delay, and
2. messages between a given sender/receiver pair are received **in the
   order sent**.

:class:`Network` provides both.  Each ordered pair of processes is a
channel; a message's nominal delay is drawn from the channel's delay model,
and its delivery time is then clamped to be at or after the previously
scheduled delivery on that channel, which yields per-channel FIFO regardless
of the drawn delays.

The FIFO clamp can be disabled (``fifo=False``) *only* to demonstrate, in
the ablation tests, that axioms P1/P2 -- and with them the algorithm's
soundness argument -- genuinely depend on ordered delivery.

Each message in flight is one :class:`_Delivery` record on the simulator's
event heap (a :class:`~repro.sim.events.HeapPayload`): no closure, no
:class:`~repro.sim.events.Event` and no name string per message.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Hashable
from typing import Any, Protocol

from repro.errors import SimulationError
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class DelayModel(Protocol):
    """Draws a nominal (pre-FIFO-clamp) delay for one message."""

    def sample(self, rng: random.Random) -> float:
        """Return a finite, non-negative delay."""
        ...


class FixedDelay:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if not 0 <= delay < math.inf:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedDelay({self.delay})"


class UniformDelay:
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high < math.inf:
            raise SimulationError(f"need 0 <= low <= high < inf, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class ExponentialDelay:
    """Delay drawn from an exponential distribution with the given mean.

    Heavy right tail; good at exposing reordering-adjacent bugs because
    successive messages on one channel frequently draw wildly different
    nominal delays and rely on the FIFO clamp.
    """

    def __init__(self, mean: float) -> None:
        if not 0 < mean < math.inf:
            raise SimulationError(f"mean must be finite and positive, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self.mean})"


class _Delivery:
    """One message in flight: the heap payload of a simulator delivery.

    Five slots and no ``__dict__``, since every message allocates one.  A
    delivery is never cancelled, so ``cancelled`` is a class attribute,
    and its profiler name is built only when read.
    """

    __slots__ = ("destination", "message", "network", "sender", "time")

    cancelled = False

    def __init__(
        self,
        time: float,
        network: Network,
        sender: Hashable,
        destination: Hashable,
        message: Any,
    ) -> None:
        self.time = time
        self.network = network
        self.sender = sender
        self.destination = destination
        self.message = message

    def action(self) -> None:
        """Show the delivery to the message observers, then hand it over."""
        network = self.network
        sender = self.sender
        destination = self.destination
        message = self.message
        observers = network.simulator.tracer.delivered_observers
        if observers:
            # One clock read, so every observer sees the same instant.
            at = network.simulator.clock.now
            for observer in observers:
                observer(at, sender, destination, message)
        network._processes[destination].on_message(sender, message)

    @property
    def name(self) -> str:
        return f"deliver {type(self.message).__name__} {self.sender!r}->{self.destination!r}"


class Network:
    """Message transport between registered processes.

    Parameters
    ----------
    simulator:
        The owning simulator (provides scheduling, RNG, counts, trace).
    delay_model:
        Nominal per-message delay distribution (default ``FixedDelay(1)``).
    fifo:
        Keep per-channel FIFO ordering (the paper's assumption).  Disable
        only in the ablation tests.
    """

    #: Minimal spacing between two deliveries on one channel, used by the
    #: FIFO clamp.  Strictly positive so same-channel messages never tie in
    #: time and delivery order is unambiguous.
    _FIFO_EPSILON = 1e-9

    def __init__(
        self,
        simulator: Simulator,
        delay_model: DelayModel | None = None,
        fifo: bool = True,
    ) -> None:
        self.simulator = simulator
        self.delay_model = delay_model if delay_model is not None else FixedDelay(1.0)
        self.fifo = fifo
        self._processes: dict[Hashable, Process] = {}
        self._last_delivery: dict[tuple[Hashable, Hashable], float] = {}
        #: Optional deterministic delay script for adversarial tests:
        #: called as ``(sender, destination, message)``; a non-None return
        #: replaces the sampled delay.  Combined with ``fifo=False`` this
        #: lets the ablation tests construct the exact message orderings
        #: that break axioms P1/P2.
        self.delay_override: Callable[[Hashable, Hashable, Any], float | None] | None = None
        # One delay stream per message type: detection traffic (probes)
        # then cannot perturb the delays drawn for the underlying
        # computation (requests/replies), so runs that differ only in
        # detection policy see byte-identical workload evolution --
        # essential for the cross-policy comparisons in E5/E7/E8.
        self._rngs: dict[str, random.Random] = {}

    def register(self, process: Process) -> None:
        """Add ``process`` to the network; its pid must be unique.

        Registration attaches the process's
        :class:`~repro.sim.transport.SimNodeContext` -- the capability
        view protocol code speaks instead of this network directly.
        """
        if process.pid in self._processes:
            raise SimulationError(f"duplicate process id {process.pid!r}")
        # Local import: transport.py imports Network for its constructor
        # signature, so importing it at module scope would be circular.
        from repro.sim.transport import SimNodeContext

        self._processes[process.pid] = process
        process.attach_context(SimNodeContext(process.pid, self.simulator, self))

    def process(self, pid: Hashable) -> Process:
        """Look up a registered process by id."""
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"no process registered with id {pid!r}") from None

    @property
    def process_ids(self) -> list[Hashable]:
        return list(self._processes)

    def send(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        """Queue ``message`` for delivery from ``sender`` to ``destination``.

        The network keeps no message counters of its own: the tracer's
        message observers see the send now and the delivery when it
        happens, and whoever counts messages (telemetry, a system's probe
        accounting) counts them there, once.

        Raises :class:`SimulationError` for an unknown destination, and
        for a drawn or overridden delay that is negative, NaN or infinite
        (P4 promises every message a finite delay).
        """
        if destination not in self._processes:
            raise SimulationError(
                f"{sender!r} sent a message to unknown process {destination!r}"
            )
        simulator = self.simulator
        now = simulator.clock.now
        type_key = type(message).__name__
        nominal: float | None = None
        if self.delay_override is not None:
            nominal = self.delay_override(sender, destination, message)
        if nominal is None:
            rng = self._rngs.get(type_key)
            if rng is None:
                rng = simulator.rng.stream(f"network.delays.{type_key}")
                self._rngs[type_key] = rng
            nominal = self.delay_model.sample(rng)
        if not 0.0 <= nominal < math.inf:
            raise SimulationError(
                f"message delay must be finite and non-negative, got {nominal}"
            )
        delivery_time = now + nominal
        channel = (sender, destination)
        if self.fifo:
            floor = self._last_delivery.get(channel)
            if floor is not None and delivery_time <= floor:
                delivery_time = floor + self._FIFO_EPSILON
            self._last_delivery[channel] = delivery_time

        for observer in simulator.tracer.sent_observers:
            observer(now, sender, destination, message)
        # No past-time guard needed: now >= 0, the delay is finite and
        # non-negative, and the FIFO clamp only moves a delivery later, so
        # delivery_time >= now -- the invariant Simulator.schedule_at checks.
        simulator.queue.push_payload(
            delivery_time, _Delivery(delivery_time, self, sender, destination, message)
        )

    def __repr__(self) -> str:
        return (
            f"Network(processes={len(self._processes)}, delay={self.delay_model!r}, "
            f"fifo={self.fifo})"
        )
