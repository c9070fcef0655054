"""Message types of the basic model.

Three message kinds exist in the underlying computation and the detection
computation (section 2.4): *requests*, *replies*, and *probes*.  Section 5
adds WFGD messages, which carry sets of edges.  All are immutable
dataclasses, so one object can travel on several edges (A0 and A2 send the
same probe on every outgoing edge).  Readers tell probe traffic from base
traffic by message type on the tracer's message channel: the system's
probe accounting counts ``Probe`` sends, telemetry counts every message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._ids import ProbeTag, VertexId


@dataclass(frozen=True, slots=True)
class Request:
    """``p_i`` asks ``p_j`` to carry out an action (creates a grey edge)."""

    requester: VertexId


@dataclass(frozen=True, slots=True)
class Reply:
    """``p_j`` tells ``p_i`` the requested action is done (whitens the edge)."""

    replier: VertexId


@dataclass(frozen=True, slots=True)
class Probe:
    """A deadlock-detection probe of computation ``tag`` (section 3.2).

    In the basic model a probe travels along a wait-for edge from the
    sender to the receiver; it carries nothing but its computation tag.
    Meaningfulness is judged entirely at the receiver: the probe is
    meaningful iff the edge it travelled on exists and is black at receipt,
    which by P3 the receiver can decide locally (it knows its incoming
    black edges).
    """

    tag: ProbeTag


@dataclass(frozen=True, slots=True)
class WfgdMessage:
    """A WFGD message: a set of edges on permanent black paths (section 5).

    Sent *against* edge direction: the holder of knowledge about permanent
    black paths from ``v_j`` informs each predecessor ``v_k`` with a black
    edge ``(v_k, v_j)``.  Edges are ``(source, target)`` vertex pairs.
    """

    edges: frozenset[tuple[VertexId, VertexId]]
