"""The discrete-event simulation engine.

A :class:`Simulator` owns the clock, the event queue, a tracer, the run's
counts (a :class:`collections.Counter`), and an RNG registry, and exposes
the scheduling API used by model code.  Running is pull-based:
:meth:`run` pops events in ``(time, sequence)`` order, advances the clock,
and executes their actions until quiescence, a time deadline, or an
event-count limit.  It reads each popped payload only
through :class:`~repro.sim.events.HeapPayload` (``time``, ``cancelled``,
``action()``), so a timer's :class:`~repro.sim.events.Event` and the
network's delivery record run through the same loop; the opt-in
:class:`ProfileHook` sees the same payloads and reads their ``name``.

The engine is the hot path of every experiment sweep, so the execution core
is written for speed without changing observable behaviour:

* the plain-vs-profiled execution choice is a **precomputed dispatch**
  (``_execute``), rebuilt whenever :attr:`profile_hook` is assigned, so
  :meth:`step` pays no per-event ``is None`` branch;
* :meth:`run` inlines the pop/advance/execute cycle over the raw heap with
  bound locals, skipping the per-event property and method lookups of the
  naive ``while step()`` loop.

Both paths execute events in exactly the same ``(time, sequence)`` order and
produce bit-identical traces -- ``tests/sim/test_hot_path.py`` proves it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable
from typing import Protocol

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue, HeapPayload
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class ProfileHook(Protocol):
    """Structural interface for the opt-in execution profiler.

    The simulator itself never reads the wall clock (rule RPX002); it only
    calls out to an attached hook around each event.  The one concrete
    implementation lives in :mod:`repro.obs.profile`, the single module
    allowed to measure wall time.  When no hook is attached the per-event
    overhead is zero: assigning :attr:`Simulator.profile_hook` swaps the
    precomputed execute dispatch rather than testing ``is None`` per event.
    Both calls receive the popped heap payload: a timer's
    :class:`~repro.sim.events.Event` or a message delivery, told apart by
    its ``name``.
    """

    def before_event(self, event: HeapPayload) -> None:
        """Called after the clock advanced, before the action runs."""
        ...

    def after_event(self, event: HeapPayload, queue_depth: int) -> None:
        """Called after the action ran; ``queue_depth`` is the raw heap size."""
        ...


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all randomness (delays, workloads).
    trace:
        Whether to record a full structured trace.  Verification-heavy tests
        keep it on; large benchmark sweeps turn it off and read the systems'
        records (declarations, probe accounting) and :attr:`counts`.
    """

    def __init__(self, seed: int = 0, trace: bool = True) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.tracer = Tracer(enabled=trace)
        #: events counted by name through ``NodeContext.count``.
        self.counts: Counter[str] = Counter()
        self.rng = RngRegistry(seed)
        self._events_executed = 0
        self._profile_hook: ProfileHook | None = None
        self._execute: Callable[[HeapPayload], None] = self._execute_plain

    @property
    def profile_hook(self) -> ProfileHook | None:
        """Opt-in execution profiler (see :class:`ProfileHook`).

        Attach / detach via :class:`repro.obs.profile.SimulatorProfiler`.
        Assignment precomputes the execute dispatch used by :meth:`step`
        and :meth:`run`, so the unprofiled hot path carries no hook test.
        """
        return self._profile_hook

    @profile_hook.setter
    def profile_hook(self, hook: ProfileHook | None) -> None:
        self._profile_hook = hook
        self._execute = self._execute_plain if hook is None else self._execute_profiled

    def _execute_plain(self, event: HeapPayload) -> None:
        event.action()

    def _execute_profiled(self, event: HeapPayload) -> None:
        hook = self._profile_hook
        assert hook is not None
        hook.before_event(event)
        event.action()
        hook.after_event(event, self.queue.heap_size)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    def schedule(self, delay: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` time units from now.

        Returns the scheduled :class:`Event`, which is its own cancellation
        handle.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.clock.now + delay, action, name)

    def schedule_at(self, time: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time`` (>= now)."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock.now}, requested={time}"
            )
        return self.queue.push(time, action, name)

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue was empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        self.clock.advance_to(event.time)
        self._events_executed += 1
        self._execute(event)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescence, a deadline, or an event budget.

        ``until`` is an absolute virtual-time deadline: events strictly after
        it are left in the queue and the clock is advanced exactly to
        ``until`` (so periodic drivers observe a consistent end time).
        ``max_events`` bounds the number of events executed in this call and
        guards against runaway model bugs in tests.

        This is the engine's inner loop: it works on the raw heap of
        ``(time, sequence, payload)`` entries with bound locals and is
        semantically identical to ``while self.step()`` (same event order,
        same clock movement, bit-identical traces).  The direct clock write
        is safe by construction: scheduling validates ``time >= now`` (and
        ``Network.send`` only ever pushes ``now`` plus a finite,
        non-negative delay) and the heap pops in non-decreasing time order, so monotonicity holds
        without re-checking ``advance_to``'s backwards guard per event.
        """
        heap = self.queue._heap
        heappop = heapq.heappop
        clock = self.clock
        if until is None and max_events is None:
            # Quiescence without a budget: the tightest loop (no deadline
            # or budget tests, pop-then-check instead of peek-then-pop).
            while heap:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                clock._now = entry[0]
                self._events_executed += 1
                self._execute(event)
            return
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return
            # Find the earliest live event (lazy cancellation discard).
            while heap and heap[0][2].cancelled:
                heappop(heap)
            if not heap:
                if until is not None:
                    clock.advance_to(until)
                return
            entry = heap[0]
            if until is not None and entry[0] > until:
                clock.advance_to(until)
                return
            heappop(heap)
            clock._now = entry[0]
            self._events_executed += 1
            self._execute(entry[2])
            executed += 1

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain; raise if the budget is exhausted.

        Deadlock detection experiments typically end at quiescence: a dark
        cycle produces no further underlying-computation events, and probe
        computations always terminate, so a well-formed scenario quiesces.
        A non-quiescing run within ``max_events`` indicates a driver that
        schedules unboundedly (use :meth:`run` with ``until`` for those).
        """
        self.run(max_events=max_events)
        if self.queue:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events "
                f"(queue still holds {len(self.queue)} events at t={self.now})"
            )

    def trace_now(self, category: str, **details: object) -> None:
        """Record a trace event stamped with the current time."""
        tracer = self.tracer
        if category in tracer.routes:
            tracer.record(self.clock.now, category, **details)

    def __repr__(self) -> str:
        return (
            f"Simulator(t={self.clock.now}, pending={len(self.queue)}, "
            f"executed={self._events_executed})"
        )
