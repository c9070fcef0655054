"""Live (wall-clock) runtime: nodes on an asyncio event loop behind the seam.

The deterministic simulator answers "what does the protocol do on this
exact schedule"; this package answers "does the same node code, byte for
byte, behave on a real concurrent runtime".  :class:`AsyncioTransport`
implements the :class:`~repro.core.transport.Transport` contract with an
asyncio event loop: per-channel FIFO delivery on plain loop timers,
configurable delay injection, wall-clock timers scaled into virtual
units, and a run-until-declaration driver with a wall-clock timeout.

Because delivery interleavings now come from the host scheduler, live
runs are *not* reproducible -- but the paper's claims (QRP2 soundness at
the instant of declaration, QRP1 completeness) are schedule-free: they
hold for every P4-legal delivery order.  The conformance suite run
through :func:`repro.runner.run` exercises exactly that.
"""

from __future__ import annotations

from repro.live.transport import AsyncioTransport

__all__ = ["AsyncioTransport"]
