"""The transport seam: what protocol code may know about its runtime.

The paper's only communication assumptions (section 2.4 / axiom P4) are
that messages arrive reliably, after an arbitrary finite delay, in the
order sent per channel -- nothing about *how* they move.  This module is
the executable form of that observation: a pair of structural protocols
that protocol code (vertices, controllers, initiation policies) programs
against instead of touching :class:`~repro.sim.simulator.Simulator` or
:class:`~repro.sim.network.Network` directly.

* :class:`NodeContext` is the per-node capability set handed to a
  :class:`~repro.sim.process.Process` at registration: send a message,
  read the clock, set a timer, record a trace event, count an event.
  Everything a node of the paper's model is allowed to do -- and nothing
  more (no peeking at other nodes, no global state; axiom P3 by
  construction).
* :class:`Transport` is the runtime contract a backend implements: node
  registration, clock, scheduling, a run loop, the tracer, and the
  run's counts.  Every implementation must guarantee **P4**: reliable
  delivery (no loss, no duplication) and per-channel FIFO ordering, and
  the **atomicity note** of section 3: a message handler, once started,
  runs to completion before any other handler or timer fires on any node.

Two backends exist: :class:`~repro.sim.transport.SimTransport` (the
deterministic discrete-event simulator) and
:class:`~repro.live.transport.AsyncioTransport` (wall-clock asyncio).
Both are verified against the same contract suite (``tests/transport``).

Layering note (lint rule RPX004): this module is interface-only -- it
defines structural :class:`typing.Protocol` types and imports nothing
above the protocol tier -- so it is the one ``core`` module that protocol
packages may import.  The layering rule special-cases it as a seam.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import Tracer


class TimerHandle(Protocol):
    """Handle for a pending timer; cancellation is idempotent."""

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""
        ...


class MessageProcess(Protocol):
    """What a transport needs from a registrable node."""

    pid: Hashable

    def attach_context(self, ctx: "NodeContext") -> None:
        """Receive the node's capability set at registration time."""
        ...

    def on_message(self, sender: Hashable, message: Any) -> None:
        """Handle one delivered message (runs to completion; atomicity)."""
        ...


class NodeContext(Protocol):
    """Per-node runtime capabilities (the paper's process axioms, typed).

    A node may send messages (P4 delivery is the transport's obligation),
    read its local clock, set local timers, and emit observations.  The
    context is the *only* runtime object protocol code touches, which is
    what makes nodes portable across the simulator and the live runtime.
    """

    @property
    def node_id(self) -> Hashable:
        """The id this node was registered under."""
        ...

    def send(self, destination: Hashable, message: Any) -> None:
        """Send ``message`` to ``destination`` (reliable, per-channel FIFO)."""
        ...

    def now(self) -> float:
        """Current time in virtual time units."""
        ...

    def set_timer(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> TimerHandle:
        """Run ``callback`` after ``delay`` time units; cancellable."""
        ...

    def trace(self, category: str, **details: object) -> None:
        """Record a trace event stamped with the current time."""
        ...

    def count(self, name: str) -> None:
        """Add one to the transport's count ``name``."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Runtime contract guaranteeing axiom P4 plus handler atomicity.

    Implementations must deliver every sent message exactly once, keep
    per-channel (sender, destination) FIFO ordering, run each handler to
    completion before starting another, and drive timers in local-clock
    order.  ``tracer``, ``counts`` and ``rng`` are shared by every node;
    harness code reads them, protocol code reaches them only through its
    :class:`NodeContext`.  ``counts`` is a plain :class:`collections.Counter`
    of event names, so a name never counted reads 0 and is not added.
    """

    #: backend name, for reports ("sim", "asyncio", ...).
    name: str
    tracer: "Tracer"
    counts: Counter[str]
    rng: "RngRegistry"

    @property
    def now(self) -> float:
        """Current time in virtual time units."""
        ...

    def register(self, process: MessageProcess) -> NodeContext:
        """Add a node; pids are unique.  Returns (and attaches) its context."""
        ...

    def process(self, pid: Hashable) -> MessageProcess:
        """Look up a registered node by id."""
        ...

    def schedule(
        self, delay: float, action: Callable[[], None], name: str = ""
    ) -> TimerHandle:
        """Driver-level timer, ``delay`` units from now."""
        ...

    def schedule_at(
        self, time: float, action: Callable[[], None], name: str = ""
    ) -> TimerHandle:
        """Driver-level timer at absolute ``time`` (>= now)."""
        ...

    @property
    def quiescent(self) -> bool:
        """True when no message is in flight and no timer pends."""
        ...

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescence, the ``until`` deadline, or an event budget."""
        ...

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        """Run until no messages are in flight and no timers pend."""
        ...

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 1_000_000
    ) -> bool:
        """Run until ``predicate()`` holds; False if quiescent/budget first."""
        ...

    def close(self) -> None:
        """Release backend resources; the transport is unusable afterwards."""
        ...


#: Signature of a transport factory: :func:`repro.core.assembly.build_runtime`
#: calls it with the shared runtime knobs.  Transport classes themselves
#: satisfy it (``AsyncioTransport`` is its own factory).
TransportFactory = Callable[..., Transport]
