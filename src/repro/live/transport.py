"""Wall-clock asyncio backend of the transport seam.

:class:`AsyncioTransport` hosts the same :class:`~repro.sim.process.Process`
subclasses the simulator runs, on a private asyncio event loop:

* **P4 by construction.**  Every ordered ``(sender, destination)`` pair
  gets its own FIFO queue drained by one consumer task; a message's
  injected delay only stretches the consumer's sleep, so delivery order
  on a channel always equals send order, no message is lost, and every
  delay is finite.
* **Atomicity note.**  Handlers run synchronously inside loop callbacks
  of a single-threaded loop, so a step, once started, completes before
  any other delivery or timer fires -- the section 3 requirement.
* **Virtual units on a wall clock.**  Protocol code thinks in the same
  abstract time units as the simulator; ``time_scale`` converts them to
  wall seconds (default: 1 unit = 5 ms).  ``now`` is real elapsed time,
  so timers and delays genuinely race each other -- interleavings come
  from the host scheduler, not a deterministic queue.

The loop only spins inside the ``run*`` methods (the synchronous driver
facade shared with :class:`~repro.sim.transport.SimTransport`).  Each
``run*`` call enforces ``max_wall_seconds``: a live system that fails to
quiesce or to satisfy the predicate raises
:class:`~repro.errors.SimulationError` instead of hanging the caller.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable, Hashable
from typing import Any

from repro.errors import SimulationError
from repro.sim import categories
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.network import DelayModel, FixedDelay
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

#: type of one queued delivery: (delivery time in units, sender, dest, message)
_Delivery = tuple[float, Hashable, Hashable, Any]


class LiveTimerHandle:
    """Cancellable handle for one pending live timer.

    Resolves exactly once: either the timer fires or :meth:`cancel` runs;
    both decrement the transport's pending-timer count, which is half of
    the quiescence condition.
    """

    __slots__ = ("_asyncio_handle", "_done", "_transport", "callback", "name", "when")

    def __init__(
        self,
        transport: "AsyncioTransport",
        when: float,
        callback: Callable[[], None],
        name: str,
    ) -> None:
        self._transport = transport
        self._done = False
        self._asyncio_handle: asyncio.TimerHandle | None = None
        self.when = when
        self.callback = callback
        self.name = name

    def cancel(self) -> None:
        if self._done:
            return
        self._done = True
        if self._asyncio_handle is not None:
            self._asyncio_handle.cancel()
        self._transport._timer_resolved(fired=False)

    def _fire(self) -> None:
        if self._done:
            return
        self._done = True
        self._transport._timer_resolved(fired=True)
        self._transport._guarded(self.callback)


class LiveNodeContext:
    """Per-node capability view over one :class:`AsyncioTransport`."""

    __slots__ = ("_node_id", "_transport")

    def __init__(self, node_id: Hashable, transport: "AsyncioTransport") -> None:
        self._node_id = node_id
        self._transport = transport

    @property
    def node_id(self) -> Hashable:
        return self._node_id

    def send(self, destination: Hashable, message: Any) -> None:
        self._transport.send(self._node_id, destination, message)

    def now(self) -> float:
        return self._transport.now

    def set_timer(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> LiveTimerHandle:
        return self._transport.schedule(delay, callback, name)

    def trace(self, category: str, **details: object) -> None:
        transport = self._transport
        tracer = transport.tracer
        if category in tracer.routes:
            tracer.record(transport.now, category, **details)

    def counter(self, name: str) -> Counter:
        return self._transport.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self._transport.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self._transport.metrics.histogram(name)

    def __repr__(self) -> str:
        return f"LiveNodeContext({self._node_id!r})"


class AsyncioTransport:
    """The wall-clock backend of the transport contract.

    Parameters mirror :func:`repro.core.assembly.build_runtime` (the
    class is its own factory) plus two live-only knobs:

    time_scale:
        Wall seconds per virtual time unit.  The default (5 ms/unit)
        keeps the standard conformance scenarios -- tens of units -- well
        under a second while leaving delivery races real.
    max_wall_seconds:
        Wall-clock budget for each ``run*`` call; exceeding it raises
        :class:`~repro.errors.SimulationError` (the live runtime's
        substitute for the simulator's bounded event queue).
    """

    name = "asyncio"

    def __init__(
        self,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        trace: bool = True,
        fifo: bool = True,
        *,
        time_scale: float = 0.005,
        max_wall_seconds: float = 30.0,
    ) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be positive, got {time_scale}")
        if max_wall_seconds <= 0:
            raise SimulationError(
                f"max_wall_seconds must be positive, got {max_wall_seconds}"
            )
        self.tracer = Tracer(enabled=trace)
        self.metrics = MetricsRegistry()
        self.rng = RngRegistry(seed)
        self.delay_model = delay_model if delay_model is not None else FixedDelay(1.0)
        self.fifo = fifo
        self.time_scale = time_scale
        self.max_wall_seconds = max_wall_seconds
        #: optional deterministic delay script, as on the sim network:
        #: called ``(sender, destination, message)``; non-None replaces
        #: the sampled delay.
        self.delay_override: Callable[[Hashable, Hashable, Any], float | None] | None = None

        self._loop = asyncio.new_event_loop()
        #: wall time (loop.time()) of virtual t=0; fixed at the first run.
        self._origin: float | None = None
        self._closed = False
        self._processes: dict[Hashable, Any] = {}
        self._channels: dict[tuple[Hashable, Hashable], asyncio.Queue[_Delivery]] = {}
        self._consumers: dict[tuple[Hashable, Hashable], asyncio.Task[None]] = {}
        #: unordered delivery tasks used when ``fifo=False`` (ablations).
        self._loose_tasks: set[asyncio.Task[None]] = set()
        #: timers created before the first run; armed when the origin is
        #: fixed (setup wall time may exceed small virtual times, so they
        #: cannot be armed against the wall clock yet).
        self._unarmed_timers: list[LiveTimerHandle] = []
        self._pending_sends: list[_Delivery] = []
        self._pending_timers = 0
        self._in_flight = 0
        self._executed = 0
        self._failure: BaseException | None = None
        self._activity = asyncio.Event()
        self._rngs: dict[str, random.Random] = {}
        self._sent_counter = self.metrics.counter("net.messages.sent")
        self._delivered_counter = self.metrics.counter("net.messages.delivered")
        self._in_flight_gauge = self.metrics.gauge("net.messages.in_flight")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Elapsed virtual units (0 until the first ``run*`` call).

        Unlike the simulator's clock this keeps advancing with the wall
        clock between ``run*`` calls -- live time does not pause.
        """
        if self._origin is None:
            return 0.0
        return (self._loop.time() - self._origin) / self.time_scale

    @property
    def events_executed(self) -> int:
        """Deliveries plus timer firings executed so far."""
        return self._executed

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def register(self, process: Any) -> LiveNodeContext:
        if process.pid in self._processes:
            raise SimulationError(f"duplicate process id {process.pid!r}")
        self._processes[process.pid] = process
        ctx = LiveNodeContext(process.pid, self)
        process.attach_context(ctx)
        return ctx

    def process(self, pid: Hashable) -> Any:
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"no process registered with id {pid!r}") from None

    @property
    def process_ids(self) -> list[Hashable]:
        return list(self._processes)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        """Queue ``message`` on the ``sender -> destination`` channel.

        Accounting matches the sim network: ``net.messages.sent`` plus a
        per-type counter, the in-flight gauge, and a ``net.sent`` trace
        event -- so observers (e.g. the OR model's in-flight grant
        tracker) work unchanged on live runs.
        """
        if destination not in self._processes:
            raise SimulationError(
                f"{sender!r} sent a message to unknown process {destination!r}"
            )
        now = self.now
        type_key = type(message).__name__
        nominal: float | None = None
        if self.delay_override is not None:
            nominal = self.delay_override(sender, destination, message)
        if nominal is None:
            rng = self._rngs.get(type_key)
            if rng is None:
                rng = self.rng.stream(f"network.delays.{type_key}")
                self._rngs[type_key] = rng
            nominal = self.delay_model.sample(rng)
        if nominal < 0:
            raise SimulationError(f"delay model produced negative delay {nominal}")

        self._sent_counter.increment()
        self.metrics.counter(f"net.messages.sent.{type_key}").increment()
        self._in_flight_gauge.increment()
        self._in_flight += 1
        if self.tracer.wants(categories.NET_SENT):
            self.tracer.record(
                now,
                categories.NET_SENT,
                sender=sender,
                destination=destination,
                message=message,
            )
        delivery: _Delivery = (now + nominal, sender, destination, message)
        if self._origin is None:
            self._pending_sends.append(delivery)
        else:
            self._dispatch(delivery)

    def _dispatch(self, delivery: _Delivery) -> None:
        if not self.fifo:
            # Ablation mode: every message sleeps independently, so two
            # messages on one channel can genuinely overtake each other.
            task = self._loop.create_task(self._deliver_loose(delivery))
            self._loose_tasks.add(task)
            task.add_done_callback(self._loose_tasks.discard)
            return
        channel = (delivery[1], delivery[2])
        queue = self._channels.get(channel)
        if queue is None:
            queue = asyncio.Queue()
            self._channels[channel] = queue
            self._consumers[channel] = self._loop.create_task(self._consume(queue))
        queue.put_nowait(delivery)

    async def _consume(self, queue: "asyncio.Queue[_Delivery]") -> None:
        """Drain one channel serially: FIFO regardless of drawn delays."""
        while True:
            delivery = await queue.get()
            await self._sleep_until(delivery[0])
            self._deliver(delivery)

    async def _deliver_loose(self, delivery: _Delivery) -> None:
        await self._sleep_until(delivery[0])
        self._deliver(delivery)

    async def _sleep_until(self, when_units: float) -> None:
        assert self._origin is not None
        remaining = self._origin + when_units * self.time_scale - self._loop.time()
        if remaining > 0:
            await asyncio.sleep(remaining)

    def _deliver(self, delivery: _Delivery) -> None:
        _, sender, destination, message = delivery
        if self.tracer.wants(categories.NET_DELIVERED):
            self.tracer.record(
                self.now,
                categories.NET_DELIVERED,
                sender=sender,
                destination=destination,
                message=message,
            )
        self._delivered_counter.increment()
        self._in_flight_gauge.decrement()
        self._in_flight -= 1
        self._executed += 1
        process = self._processes[destination]
        self._guarded(lambda: process.on_message(sender, message))
        self._activity.set()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, action: Callable[[], None], name: str = ""
    ) -> LiveTimerHandle:
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self._schedule_at_units(self.now + delay, action, name)

    def schedule_at(
        self, time: float, action: Callable[[], None], name: str = ""
    ) -> LiveTimerHandle:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; wall clock already at {self.now}"
            )
        return self._schedule_at_units(time, action, name)

    def _schedule_at_units(
        self, when: float, action: Callable[[], None], name: str
    ) -> LiveTimerHandle:
        handle = LiveTimerHandle(self, when, action, name)
        self._pending_timers += 1
        if self._origin is None:
            self._unarmed_timers.append(handle)
        else:
            self._arm(handle)
        return handle

    def _arm(self, handle: LiveTimerHandle) -> None:
        assert self._origin is not None
        wall = self._origin + handle.when * self.time_scale
        handle._asyncio_handle = self._loop.call_at(wall, handle._fire)

    def _timer_resolved(self, fired: bool) -> None:
        self._pending_timers -= 1
        if fired:
            self._executed += 1
        self._activity.set()

    # ------------------------------------------------------------------
    # Handler guard
    # ------------------------------------------------------------------

    def _guarded(self, action: Callable[[], None]) -> None:
        """Run one handler/timer action, capturing the first failure.

        The driver re-raises it; later actions still run (a live system
        has no way to freeze its peers), but only the first failure is
        reported, matching the simulator's fail-on-first behaviour.
        """
        try:
            action()
        except Exception as exc:  # noqa: BLE001 - transported to the driver
            if self._failure is None:
                self._failure = exc
            self._activity.set()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._closed:
            raise SimulationError("transport is closed")
        if self._origin is not None:
            return
        self._origin = self._loop.time()
        for handle in self._unarmed_timers:
            if not handle._done:
                self._arm(handle)
        self._unarmed_timers.clear()
        pending, self._pending_sends = self._pending_sends, []
        for delivery in pending:
            self._dispatch(delivery)

    @property
    def quiescent(self) -> bool:
        return self._in_flight == 0 and self._pending_timers == 0

    async def _drive(
        self,
        stop: Callable[[], bool],
        until_wall: float | None,
        max_events: int | None,
    ) -> bool:
        budget_deadline = self._loop.time() + self.max_wall_seconds
        baseline = self._executed
        while True:
            self._activity.clear()
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            if stop():
                return True
            if self.quiescent:
                return False
            if max_events is not None and self._executed - baseline >= max_events:
                return False
            wall = self._loop.time()
            if until_wall is not None and wall >= until_wall:
                return False
            if wall >= budget_deadline:
                raise SimulationError(
                    f"live run exceeded max_wall_seconds={self.max_wall_seconds} "
                    f"(virtual t={self.now:.3f}, {self._in_flight} in flight, "
                    f"{self._pending_timers} timers pending)"
                )
            timeout = budget_deadline - wall
            if until_wall is not None:
                timeout = min(timeout, until_wall - wall)
            try:
                await asyncio.wait_for(self._activity.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _run_driver(
        self,
        stop: Callable[[], bool],
        until: float | None,
        max_events: int | None,
    ) -> bool:
        self._start()
        assert self._origin is not None
        until_wall = (
            None if until is None else self._origin + until * self.time_scale
        )
        return bool(
            self._loop.run_until_complete(self._drive(stop, until_wall, max_events))
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescence, the virtual ``until`` deadline, or a
        ``max_events`` budget (checked between wake-ups, so it may
        overshoot by in-progress deliveries)."""
        self._run_driver(lambda: False, until, max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self._run_driver(lambda: False, None, max_events)

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 1_000_000
    ) -> bool:
        """Run until ``predicate()`` holds -- the run-until-declaration
        driver.  Returns False on quiescence or event-budget exhaustion;
        raises :class:`~repro.errors.SimulationError` when the wall-clock
        budget expires first."""
        return self._run_driver(predicate, None, max_events)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Cancel consumers and close the private loop (idempotent)."""
        if self._closed:
            return
        self._closed = True
        tasks = [*self._consumers.values(), *self._loose_tasks]
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._loop.close()

    def __repr__(self) -> str:
        return (
            f"AsyncioTransport(t={self.now:.3f}, nodes={len(self._processes)}, "
            f"in_flight={self._in_flight}, timers={self._pending_timers})"
        )
