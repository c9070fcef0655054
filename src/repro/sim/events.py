"""Heap payloads and the stable event queue.

Events are ordered by ``(time, sequence)``: events scheduled earlier in real
(simulation-construction) order run first among same-time events.  This
stability is what makes the whole simulation deterministic for a given seed,
which in turn makes every benchmark and test reproducible.

The heap stores ``(time, sequence, payload)`` triples rather than the
payloads themselves: tuple comparison runs in C and -- because ``sequence``
is unique -- never falls through to comparing the payload.  At heap depth
*d* a push or pop performs O(log d) comparisons, so moving them out of
Python (the dataclass-generated ``__lt__`` allocated two tuples per
comparison) is the single largest win in the engine's hot path.

A payload is anything with the :class:`HeapPayload` shape: a ``time``, a
``cancelled`` flag, an ``action()`` to run and a ``name`` for the
profiler.  The engine and the profiler read nothing else.  There are two
implementations:

* :class:`Event`, for timers and driver actions.  :meth:`EventQueue.push`
  returns it, and it is its own cancellation handle.
* the network's delivery record (:mod:`repro.sim.network`), one slotted
  object per message in flight, pushed with
  :meth:`EventQueue.push_payload`.  It is never cancelled, and builds its
  name only when something reads it.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import SimulationError

Action = Callable[[], None]


class HeapPayload(Protocol):
    """What the engine and the profiler read from a popped heap entry."""

    @property
    def time(self) -> float:
        """Virtual time at which the payload runs (its entry's first field)."""
        ...

    @property
    def cancelled(self) -> bool:
        """True if the payload must be skipped when popped."""
        ...

    @property
    def name(self) -> str:
        """Schedule name, e.g. ``deliver Probe 0->1``; read by the profiler."""
        ...

    def action(self) -> None:
        """Run the payload; the clock already reads :attr:`time`."""
        ...


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback, and its own cancellation handle.

    Only ``time`` and ``sequence`` participate in ordering; the action and
    name are payload.  ``cancelled`` supports O(1) cancellation with lazy
    removal from the heap.  ``slots=True`` matters here: timers and driver
    actions are allocated per schedule call, and slotted attribute access
    is what the engine's inner loop (pop, execute) touches.
    """

    time: float
    sequence: int
    action: Action = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled.

        Idempotence keeps timer management in model code simple (e.g. the
        delayed-T initiation rule cancels its timer when the edge
        disappears, without having to know whether the timer already
        fired).  This is the :class:`~repro.core.transport.TimerHandle`
        contract.
        """
        self.cancelled = True


#: One heap entry: ``(time, sequence, payload)``.  Ordered entirely by the
#: first two fields (``sequence`` is unique), compared in C.
HeapEntry = tuple[float, int, HeapPayload]


class EventQueue:
    """A stable min-heap of :class:`HeapPayload` entries with lazy cancellation."""

    __slots__ = ("_counter", "_heap")

    def __init__(self) -> None:
        self._heap: list[HeapEntry] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Action, name: str = "") -> Event:
        """Add an event at absolute ``time`` and return it (its own handle)."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        sequence = next(self._counter)
        event = Event(time=time, sequence=sequence, action=action, name=name)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def push_payload(self, time: float, payload: HeapPayload) -> None:
        """Add a prebuilt ``payload`` at absolute ``time`` (its ``payload.time``).

        The hot path for message deliveries: one heap push, sequenced by the
        same counter as :meth:`push`.  The caller validates ``time``.
        """
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def pop(self) -> HeapPayload:
        """Remove and return the earliest non-cancelled payload.

        Raises :class:`SimulationError` when empty; check :meth:`__bool__`
        or :attr:`next_time` first.
        """
        heap = self._heap
        while heap:
            payload = heapq.heappop(heap)[2]
            if payload.cancelled:
                continue
            return payload
        raise SimulationError("pop from an empty event queue")

    @property
    def next_time(self) -> float | None:
        """Time of the earliest pending payload, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        """Number of live (non-cancelled) payloads.

        O(heap size); intended for assertions and quiescence checks, not
        hot loops (the engine's hot path uses :attr:`next_time`).
        """
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included.

        O(1), so safe to read per event; the profiling layer uses it as the
        queue-depth signal (an upper bound on live events -- cancelled
        entries are removed lazily).
        """
        return len(self._heap)

    def __bool__(self) -> bool:
        return self.next_time is not None
