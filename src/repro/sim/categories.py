"""Central registry of trace-event categories.

Every category string recorded through :meth:`Simulator.trace_now` /
:meth:`Tracer.record` and every category a consumer matches against
(`verification/invariants.py`, the system observers, the baselines, the
span folds) must be a constant from this module.  The invariant
checkers grep the trace *by category*; a typo'd literal on either the
producer or the consumer side silently defeats them.  Centralising the
names turns that failure mode into an ``AttributeError`` at import time,
and the ``RPX005`` rule of :mod:`repro.lint` rejects raw dotted literals
at lint time.

Naming convention: ``<model>.<noun>.<verb>`` dotted strings; the constant
is the upper-cased, underscore-joined form of the string.
"""

from __future__ import annotations

from typing import Final

# -- network layer (sim/network.py) ----------------------------------------
NET_SENT: Final = "net.sent"
NET_DELIVERED: Final = "net.delivered"

# -- basic model (sections 2-5) --------------------------------------------
BASIC_REQUEST_SENT: Final = "basic.request.sent"
BASIC_REQUEST_RECEIVED: Final = "basic.request.received"
BASIC_REPLY_SENT: Final = "basic.reply.sent"
BASIC_REPLY_RECEIVED: Final = "basic.reply.received"
BASIC_PROBE_SENT: Final = "basic.probe.sent"
BASIC_PROBE_RECEIVED: Final = "basic.probe.received"
BASIC_COMPUTATION_INITIATED: Final = "basic.computation.initiated"
BASIC_DEADLOCK_DECLARED: Final = "basic.deadlock.declared"
BASIC_UNBLOCKED: Final = "basic.unblocked"

# -- distributed-database model (section 6) --------------------------------
DDB_TXN_BEGIN: Final = "ddb.txn.begin"
DDB_TXN_BLOCKED: Final = "ddb.txn.blocked"
DDB_TXN_COMMITTED: Final = "ddb.txn.committed"
DDB_TXN_ABORTED: Final = "ddb.txn.aborted"
DDB_EDGE_ADDED: Final = "ddb.edge.added"
DDB_AGENT_BLOCKED: Final = "ddb.agent.blocked"
DDB_PROBE_SENT: Final = "ddb.probe.sent"
DDB_PROBE_RECEIVED: Final = "ddb.probe.received"
DDB_COMPUTATION_INITIATED: Final = "ddb.computation.initiated"
DDB_DEADLOCK_DECLARED: Final = "ddb.deadlock.declared"

# -- observability / profiling (repro.obs) ---------------------------------
#: Periodic event-queue-depth sample recorded by the opt-in profiler
#: (virtual-time stamped, hence deterministic and replayable).
PROFILE_QUEUE_SAMPLED: Final = "profile.queue.sampled"
#: The streaming span engine resolved one probe computation ``(i, n)``
#: and evicted it from memory (outcome + probe accounting in the details).
OBS_SPAN_SETTLED: Final = "obs.span.settled"
#: The live telemetry layer took one periodic metrics snapshot.
OBS_METRICS_SNAPSHOT: Final = "obs.metrics.snapshot"

# -- cluster runtime (repro.cluster) ----------------------------------------
#: A worker process connected back and completed its hello handshake.
CLUSTER_WORKER_READY: Final = "cluster.worker.ready"
#: A worker process died, broke its connection, or stopped heartbeating.
CLUSTER_WORKER_FAILED: Final = "cluster.worker.failed"

# -- OR / communication model (section 7) ----------------------------------
OR_REQUEST_SENT: Final = "or.request.sent"
OR_GRANT_SENT: Final = "or.grant.sent"
OR_UNBLOCKED: Final = "or.unblocked"
OR_DEADLOCK_DECLARED: Final = "or.deadlock.declared"

#: Every registered category.  ``Tracer`` does not enforce membership (ad
#: hoc categories are useful in tests), but the lint layer and the
#: registry round-trip test do.
ALL_CATEGORIES: Final[frozenset[str]] = frozenset(
    value
    for name, value in list(globals().items())
    if name.isupper() and name != "ALL_CATEGORIES" and isinstance(value, str)
)

_CONSTANT_BY_VALUE: dict[str, str] = {
    value: name
    for name, value in list(globals().items())
    if name.isupper() and name != "ALL_CATEGORIES" and isinstance(value, str)
}


def is_registered(category: str) -> bool:
    """True iff ``category`` is a registered trace category."""
    return category in ALL_CATEGORIES


def constant_name_for(category: str) -> str | None:
    """The constant name holding ``category``, or None if unregistered.

    Used by lint rule RPX005 to suggest the replacement for a raw literal.
    """
    return _CONSTANT_BY_VALUE.get(category)
