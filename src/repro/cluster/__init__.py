"""Multi-process cluster runtime: one worker OS process per node.

The simulator answers "what does the protocol do on this exact
schedule"; the live runtime answers "does the same node code behave on a
real concurrent scheduler"; this package answers "does it survive a real
*distributed* substrate" -- every message serialized to length-prefixed
JSON frames (:mod:`repro.cluster.frames`), shipped over a Unix-domain or
TCP socket to the destination node's worker process, held there until
its injected virtual due time, and delivered back in per-channel FIFO
order (axiom P4 end to end).  :class:`ClusterTransport` implements the
:class:`~repro.core.transport.Transport` contract, so every registered
detector variant gets the backend for free.

The runtime is robust by design: workers retry their dial-in with
deterministic backoff, heartbeat while alive, and shut down gracefully
at quiescence; a worker that dies mid-run surfaces as a typed
:class:`~repro.errors.ClusterError` carrying per-worker
:class:`~repro.errors.WorkerFailure` records, never a hang.
``repro run <variant> --transport cluster`` drives any variant's
scenarios on this substrate through the same run path as the other two.
"""

from __future__ import annotations

from repro.cluster.transport import ClusterTransport

__all__ = ["ClusterTransport"]
