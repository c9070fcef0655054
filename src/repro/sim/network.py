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
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable
from typing import Any, Protocol

from repro.errors import SimulationError
from repro.sim import categories
from repro.sim.metrics import Counter
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
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedDelay({self.delay})"


class UniformDelay:
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise SimulationError(f"need 0 <= low <= high, got [{low}, {high}]")
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
        if mean <= 0:
            raise SimulationError(f"mean must be positive, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self.mean})"


class Network:
    """Message transport between registered processes.

    Parameters
    ----------
    simulator:
        The owning simulator (provides scheduling, RNG, metrics, trace).
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
        # Hot-path caches: metric objects are stable for the registry's
        # lifetime, so bind them once instead of re-resolving per message;
        # per-type counters and delivery-event names are memoised lazily.
        metrics = simulator.metrics
        self._sent_counter = metrics.counter("net.messages.sent")
        self._delivered_counter = metrics.counter("net.messages.delivered")
        self._type_counters: dict[str, Counter] = {}
        self._deliver_names: dict[tuple[str, Hashable, Hashable], str] = {}

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

        Accounting: increments ``net.messages.sent`` and a per-message-type
        counter ``net.messages.sent.<TypeName>`` -- the benchmarks read the
        probe counters from here.
        """
        if destination not in self._processes:
            raise SimulationError(
                f"{sender!r} sent a message to unknown process {destination!r}"
            )
        now = self.simulator.now
        type_key = type(message).__name__
        nominal: float | None = None
        if self.delay_override is not None:
            nominal = self.delay_override(sender, destination, message)
        if nominal is None:
            rng = self._rngs.get(type_key)
            if rng is None:
                rng = self.simulator.rng.stream(f"network.delays.{type_key}")
                self._rngs[type_key] = rng
            nominal = self.delay_model.sample(rng)
        if nominal < 0:
            raise SimulationError(f"delay model produced negative delay {nominal}")
        delivery_time = now + nominal
        channel = (sender, destination)
        if self.fifo:
            floor = self._last_delivery.get(channel)
            if floor is not None and delivery_time <= floor:
                delivery_time = floor + self._FIFO_EPSILON
            self._last_delivery[channel] = delivery_time

        self._sent_counter.increment()
        type_counter = self._type_counters.get(type_key)
        if type_counter is None:
            type_counter = self.simulator.metrics.counter(f"net.messages.sent.{type_key}")
            self._type_counters[type_key] = type_counter
        type_counter.increment()
        tracer = self.simulator.tracer
        if tracer.wants(categories.NET_SENT):
            tracer.record(
                now,
                categories.NET_SENT,
                sender=sender,
                destination=destination,
                message=message,
            )

        delivered_counter = self._delivered_counter

        def deliver() -> None:
            if tracer.wants(categories.NET_DELIVERED):
                tracer.record(
                    self.simulator.now,
                    categories.NET_DELIVERED,
                    sender=sender,
                    destination=destination,
                    message=message,
                )
            delivered_counter.increment()
            self._processes[destination].on_message(sender, message)

        name_key = (type_key, sender, destination)
        name = self._deliver_names.get(name_key)
        if name is None:
            name = f"deliver {type_key} {sender!r}->{destination!r}"
            self._deliver_names[name_key] = name
        self.simulator.schedule_at(delivery_time, deliver, name=name)

    def __repr__(self) -> str:
        return (
            f"Network(processes={len(self._processes)}, delay={self.delay_model!r}, "
            f"fifo={self.fifo})"
        )
