"""Wall-clock asyncio backend of the transport seam.

:class:`AsyncioTransport` hosts the same :class:`~repro.sim.process.Process`
subclasses the simulator runs, on a private asyncio event loop:

* **P4 by construction.**  Every ordered ``(sender, destination)`` pair
  keeps a deque of its in-flight deliveries, and only the head has a loop
  timer armed; when that timer fires it delivers the head and arms the
  next.  A message's injected delay only moves its own timer, so delivery
  order on a channel always equals send order, no message is lost, and
  every delay is finite.
* **Atomicity note.**  Handlers run synchronously inside loop callbacks
  of a single-threaded loop, so a step, once started, completes before
  any other delivery or timer fires -- the section 3 requirement.
* **Virtual units on a wall clock.**  Protocol code thinks in the same
  abstract time units as the simulator; ``time_scale`` converts them to
  wall seconds (default: 1 unit = 5 ms).  ``now`` is real elapsed time,
  so timers and delays genuinely race each other -- interleavings come
  from the host scheduler, not a deterministic queue.

The loop only spins inside the ``run*`` methods (the synchronous driver
facade shared with :class:`~repro.sim.transport.SimTransport`).  A run
waits on one future that the event callbacks resolve themselves: every
delivery and timer firing ends with one stop check (a failure, the
predicate, quiescence, the event budget), and the ``until`` and
``max_wall_seconds`` deadlines are two loop timers.  A live system that
fails to quiesce or to satisfy the predicate raises
:class:`~repro.errors.SimulationError` instead of hanging the caller.
"""

from __future__ import annotations

import asyncio
import math
import random
from collections import Counter, deque
from collections.abc import Callable, Hashable
from typing import Any

from repro.errors import SimulationError
from repro.sim.network import DelayModel, FixedDelay
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

#: type of one in-flight delivery: (delivery time in units, sender, dest, message)
_Delivery = tuple[float, Hashable, Hashable, Any]


def _never() -> bool:
    """The stop predicate of every run but ``run_until``."""
    return False


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
        self._transport._pending_timers -= 1

    def _fire(self) -> None:
        """Run the callback, under the transport's guard; :meth:`cancel`
        cancels the loop handle, so a cancelled timer never gets here."""
        self._done = True
        transport = self._transport
        transport._pending_timers -= 1
        transport._executed += 1
        self.callback()


def require_finite_positive(name: str, value: float) -> None:
    """Raise :class:`SimulationError` naming ``name`` unless ``0 < value < inf``.

    A NaN or infinite knob otherwise turns into a clock that reads NaN,
    a deadline that never passes, or a timeout no system call takes.
    """
    if not 0 < value < math.inf:
        raise SimulationError(f"{name} must be finite and positive, got {value}")


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

    def count(self, name: str) -> None:
        self._transport.counts[name] += 1

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
        require_finite_positive("time_scale", time_scale)
        require_finite_positive("max_wall_seconds", max_wall_seconds)
        self.tracer = Tracer(enabled=trace)
        #: events counted by name through ``NodeContext.count``.
        self.counts: Counter[str] = Counter()
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
        #: in-flight deliveries per ``(sender, destination)`` channel; the
        #: head of a non-empty deque is the one with a loop timer armed.
        self._channels: dict[tuple[Hashable, Hashable], deque[_Delivery]] = {}
        #: timers created before the first run; armed when the origin is
        #: fixed (setup wall time may exceed small virtual times, so they
        #: cannot be armed against the wall clock yet).
        self._unarmed_timers: list[LiveTimerHandle] = []
        self._pending_sends: list[_Delivery] = []
        self._pending_timers = 0
        self._in_flight = 0
        self._executed = 0
        self._failure: BaseException | None = None
        #: the running ``run*`` call: the future its callbacks resolve (None
        #: once resolved and between runs), its predicate, its event limit
        #: and its two deadline timers.
        self._waiter: asyncio.Future[bool] | None = None
        self._stop: Callable[[], bool] = _never
        self._event_limit: float = math.inf
        self._deadlines: list[asyncio.TimerHandle] = []
        self._rngs: dict[str, random.Random] = {}

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

        As on the sim network, the transport keeps no message counters:
        the tracer's message observers see the send here and the delivery
        in :meth:`_deliver`, so observers (telemetry, the probe accounting,
        the OR model's in-flight grant tracker) work unchanged on live runs.
        A negative, NaN or infinite delay raises :class:`SimulationError`
        here, before any observer sees the send.
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
        if not 0.0 <= nominal < math.inf:
            raise SimulationError(
                f"message delay must be finite and non-negative, got {nominal}"
            )

        self._in_flight += 1
        for observer in self.tracer.sent_observers:
            observer(now, sender, destination, message)
        delivery: _Delivery = (now + nominal, sender, destination, message)
        if self._origin is None:
            self._pending_sends.append(delivery)
        else:
            self._dispatch(delivery)

    def _dispatch(self, delivery: _Delivery) -> None:
        if not self.fifo:
            # Ablation mode: every message has its own timer, so two
            # messages on one channel can genuinely overtake each other.
            self._arm(delivery[0], self._deliver, delivery)
            return
        key = (delivery[1], delivery[2])
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = deque()
        channel.append(delivery)
        if len(channel) == 1:
            self._arm(delivery[0], self._deliver_head, channel)

    def _deliver_head(self, channel: deque[_Delivery]) -> None:
        """Deliver a channel's head and arm the message behind it.

        A message's timer is armed only when the one before it fires, so
        channel order is send order whatever delays were drawn (P4).  The
        next timer is armed before the handler runs: a handler that sends
        on this same channel then finds it busy, or idle and arms it.
        """
        delivery = channel.popleft()
        if channel:
            self._arm(channel[0][0], self._deliver_head, channel)
        self._deliver(delivery)

    def _deliver(self, delivery: _Delivery) -> None:
        _, sender, destination, message = delivery
        observers = self.tracer.delivered_observers
        if observers:
            # One clock read, so every observer sees the same instant.
            now = self.now
            for observer in observers:
                observer(now, sender, destination, message)
        self._in_flight -= 1
        self._executed += 1
        self._processes[destination].on_message(sender, message)

    def _arm(
        self, when: float, action: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``action(*args)`` under the guard at virtual time ``when``."""
        assert self._origin is not None
        return self._loop.call_at(
            self._origin + when * self.time_scale, self._guarded, action, *args
        )

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
            handle._asyncio_handle = self._arm(when, handle._fire)
        return handle

    # ------------------------------------------------------------------
    # The guard and the stop check
    # ------------------------------------------------------------------

    def _guarded(self, action: Callable[..., None], *args: Any) -> None:
        """Run one loop callback's ``action``, then the run's stop check.

        Every event runs here -- a delivery (its trace record, counters
        and handler), a timer firing, a run's deadlines -- and so does the
        ``run_until`` predicate, evaluated after each of them.  The first
        exception is kept for the driver, which re-raises it; later
        actions still run (a live system has no way to freeze its peers),
        but only the first failure is reported, matching the simulator's
        fail-on-first behaviour.
        """
        try:
            action(*args)
            if self._waiter is not None and self._stop():
                self._resolve(True)
        except Exception as exc:  # noqa: BLE001 - transported to the driver
            if self._failure is None:
                self._failure = exc
        self._settle()

    def _settle(self) -> None:
        """End the run on a failure, at quiescence, or at its event limit."""
        if self._waiter is not None and (
            self._failure is not None
            or (self._in_flight == 0 and self._pending_timers == 0)
            or self._executed >= self._event_limit
        ):
            self._resolve(False)

    def _resolve(self, satisfied: bool) -> None:
        """Hand the running ``run*`` call its result (at most once)."""
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter.set_result(satisfied)

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
                handle._asyncio_handle = self._arm(handle.when, handle._fire)
        self._unarmed_timers.clear()
        pending, self._pending_sends = self._pending_sends, []
        for delivery in pending:
            self._dispatch(delivery)

    @property
    def quiescent(self) -> bool:
        return self._in_flight == 0 and self._pending_timers == 0

    def _arm_deadlines(self, until: float | None) -> None:
        """A run's first action: arm its wall budget and ``until`` timers."""
        self._deadlines = [
            self._loop.call_later(self.max_wall_seconds, self._guarded, self._expire)
        ]
        if until is None:
            return
        if until <= self.now:
            self._resolve(False)
        else:
            self._deadlines.append(self._arm(until, self._resolve, False))

    def _expire(self) -> None:
        if self._waiter is not None:
            raise SimulationError(
                f"live run exceeded max_wall_seconds={self.max_wall_seconds} "
                f"(virtual t={self.now:.3f}, {self._in_flight} in flight, "
                f"{self._pending_timers} timers pending)"
            )

    def _run_driver(
        self,
        stop: Callable[[], bool],
        until: float | None,
        max_events: int | None,
    ) -> bool:
        """Spin the loop until an event callback resolves this run's future.

        Arming the deadlines goes through the guard like any event, so a
        run that is over before its first event never spins the loop.
        """
        self._start()
        waiter: asyncio.Future[bool] = self._loop.create_future()
        self._waiter = waiter
        self._stop = stop
        self._event_limit = (
            math.inf if max_events is None else self._executed + max_events
        )
        try:
            self._guarded(self._arm_deadlines, until)
            if not waiter.done():
                self._loop.run_until_complete(waiter)
        finally:
            for deadline in self._deadlines:
                deadline.cancel()
            self._deadlines = []
            self._waiter = None
            self._stop = _never
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure
        return waiter.result()

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescence, the virtual ``until`` deadline, or a
        ``max_events`` budget.  Each is checked after every event; events
        already due in the loop pass that reaches one may still run."""
        self._run_driver(_never, until, max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self._run_driver(_never, None, max_events)

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
        """Close the private loop, dropping armed timers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._loop.close()

    def __repr__(self) -> str:
        return (
            f"AsyncioTransport(t={self.now:.3f}, nodes={len(self._processes)}, "
            f"in_flight={self._in_flight}, timers={self._pending_timers})"
        )
