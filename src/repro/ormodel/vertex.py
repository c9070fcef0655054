"""OR-model vertex processes and the embedded query/reply detector.

Underlying computation: a process blocks on a *dependent set* and resumes
on the first :class:`Grant` from any member (the "any" semantics).  Active
processes grant their queued communication requests after a service delay;
blocked processes may not grant (the communication-model analogue of G3).

Detector (Chandy-Misra-Haas communication model, a diffusing computation):

* on initiation, a blocked process sends ``query(tag)`` to every member of
  its dependent set and remembers the outstanding count;
* a blocked process receiving the **first** query of a computation (the
  *engaging* query) records its sender, forwards queries to its own
  dependent set, and counts them; with an empty... (dependent sets are
  never empty while blocked, by construction);
* a blocked process receiving a **later** query of the same computation
  replies immediately (it has been continuously blocked since engagement
  -- becoming active wipes the state, see below);
* replies decrement the outstanding count; at zero, a non-initiator
  replies to its engaging sender, and the initiator **declares deadlock**:
  its entire dependent closure is blocked;
* an **active** process discards queries and replies, and *unblocking
  wipes all computation state* -- stale detector traffic from before the
  unblock can then never fabricate evidence.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

from repro._ids import ProbeTag, VertexId
from repro.errors import ProtocolError
from repro.ormodel.messages import Grant, OrQuery, OrReply, RequestAny
from repro.sim import categories
from repro.sim.process import Process


@dataclass
class _OrComputation:
    """Per-computation detector state at one vertex."""

    tag: ProbeTag
    #: who sent the engaging query (None at the initiator)
    engaging_sender: VertexId | None
    #: queries forwarded and not yet answered
    outstanding: int
    replied: bool = False


class OrVertexProcess(Process):
    """One process of the OR/communication model."""

    def __init__(
        self,
        vertex_id: VertexId,
        oracle: "object",
        service_delay: float = 1.0,
        auto_grant: bool = True,
        on_declare: Callable[["OrVertexProcess", ProbeTag], None] | None = None,
    ) -> None:
        super().__init__(vertex_id)
        self.vertex_id = vertex_id
        self.oracle = oracle
        self.service_delay = service_delay
        self.auto_grant = auto_grant
        self._on_declare = on_declare
        #: the dependent set while blocked; empty when active
        self.dependent_set: set[VertexId] = set()
        #: queued communication requests awaiting this vertex's grant
        self.pending_grants: set[VertexId] = set()
        self._grant_scheduled = False
        self._computations: dict[int, _OrComputation] = {}
        self._next_sequence = 1
        self.declared: list[ProbeTag] = []
        #: workload hook
        self.unblocked_callback: Callable[["OrVertexProcess"], None] | None = None
        #: system hook for policy-driven initiation (fires on unblock,
        #: before the workload hook; None under hard-wired auto_initiate)
        self.initiation_unblocked: Callable[["OrVertexProcess"], None] | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def blocked(self) -> bool:
        return bool(self.dependent_set)

    @property
    def active(self) -> bool:
        return not self.dependent_set

    @property
    def deadlocked(self) -> bool:
        return bool(self.declared)

    # ------------------------------------------------------------------
    # Underlying computation
    # ------------------------------------------------------------------

    def request_any(self, targets: Iterable[VertexId]) -> None:
        """Block until ANY member of ``targets`` grants."""
        batch = sorted(set(targets))
        if not batch:
            return
        if self.blocked:
            raise ProtocolError(f"vertex {self.vertex_id} is already blocked")
        if self.vertex_id in batch:
            raise ProtocolError(f"vertex {self.vertex_id} cannot wait on itself")
        self.dependent_set = set(batch)
        self.oracle.set_dependents(self.vertex_id, set(batch))
        self.ctx.trace(
            categories.OR_REQUEST_SENT, source=self.vertex_id, targets=tuple(batch)
        )
        for target in batch:
            self.send(target, RequestAny(requester=self.vertex_id))

    def grant_to(self, requester: VertexId) -> None:
        """Manually grant one queued request (driver use, auto_grant off)."""
        if requester not in self.pending_grants:
            raise ProtocolError(
                f"vertex {self.vertex_id} has no pending request from {requester}"
            )
        if self.blocked:
            raise ProtocolError(
                f"vertex {self.vertex_id} is blocked and may not grant"
            )
        self._emit_grant(requester)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def initiate_detection(self) -> ProbeTag | None:
        """Start a query computation; no-op (returns None) when active."""
        if not self.blocked:
            return None
        tag = ProbeTag(initiator=int(self.vertex_id), sequence=self._next_sequence)
        self._next_sequence += 1
        self._computations[tag.initiator] = _OrComputation(
            tag=tag, engaging_sender=None, outstanding=len(self.dependent_set)
        )
        self.ctx.count("or.computations.initiated")
        for target in sorted(self.dependent_set):
            self._send_query(target, OrQuery(tag=tag, sender=self.vertex_id))
        return tag

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, sender: Hashable, message: object) -> None:
        if isinstance(message, RequestAny):
            self._on_request_any(message)
        elif isinstance(message, Grant):
            self._on_grant(message)
        elif isinstance(message, OrQuery):
            self._on_query(message)
        elif isinstance(message, OrReply):
            self._on_reply(message)
        else:
            raise ProtocolError(
                f"or-vertex {self.vertex_id} got unknown message {message!r}"
            )

    def _on_request_any(self, message: RequestAny) -> None:
        self.pending_grants.add(message.requester)
        if self.auto_grant:
            self._schedule_grants()

    def _on_grant(self, message: Grant) -> None:
        if message.granter not in self.dependent_set:
            # A stale grant from a dependent set already satisfied.
            self.ctx.count("or.grants.stale")
            return
        self.ctx.trace(
            categories.OR_UNBLOCKED, vertex=self.vertex_id, granter=message.granter
        )
        self.dependent_set.clear()
        self.oracle.set_dependents(self.vertex_id, set())
        # Unblocking wipes every computation's state: stale queries and
        # replies must find nothing to act on (soundness).
        self._computations.clear()
        if self.initiation_unblocked is not None:
            self.initiation_unblocked(self)
        if self.auto_grant:
            self._schedule_grants()
        if self.unblocked_callback is not None:
            self.unblocked_callback(self)

    # -- detector ---------------------------------------------------------

    def _on_query(self, query: OrQuery) -> None:
        if not self.blocked:
            return  # active processes discard detector traffic
        tag = query.tag
        record = self._computations.get(tag.initiator)
        if record is not None and tag.sequence < record.tag.sequence:
            return  # superseded computation
        if record is None or tag.sequence > record.tag.sequence:
            # Engaging query: forward to the whole dependent set.
            record = _OrComputation(
                tag=tag,
                engaging_sender=query.sender,
                outstanding=len(self.dependent_set),
            )
            self._computations[tag.initiator] = record
            for target in sorted(self.dependent_set):
                self._send_query(target, OrQuery(tag=tag, sender=self.vertex_id))
            return
        # Non-engaging query of the current computation: reply at once
        # (this vertex has been continuously blocked since engagement --
        # unblocking would have wiped the record).
        self._send_reply(query.sender, OrReply(tag=tag, sender=self.vertex_id))

    def _on_reply(self, reply: OrReply) -> None:
        if not self.blocked:
            return
        tag = reply.tag
        record = self._computations.get(tag.initiator)
        if record is None or record.tag != tag or record.replied:
            return
        record.outstanding -= 1
        if record.outstanding > 0:
            return
        if record.engaging_sender is None:
            # A1-analogue: the initiator collected replies from its whole
            # dependent closure -- everyone out there is blocked.
            if tag not in self.declared:
                self.declared.append(tag)
                self.ctx.trace(
                    categories.OR_DEADLOCK_DECLARED, vertex=self.vertex_id, tag=tag
                )
                if self._on_declare is not None:
                    self._on_declare(self, tag)
            return
        record.replied = True
        self._send_reply(
            record.engaging_sender, OrReply(tag=tag, sender=self.vertex_id)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send_query(self, target: VertexId, query: OrQuery) -> None:
        self.ctx.count("or.queries.sent")
        self.send(target, query)

    def _send_reply(self, target: VertexId, reply: OrReply) -> None:
        self.ctx.count("or.replies.sent")
        self.send(target, reply)

    def _schedule_grants(self) -> None:
        if self._grant_scheduled or not self.pending_grants or self.blocked:
            return
        self._grant_scheduled = True
        self.ctx.set_timer(
            self.service_delay, self._grant_all, name=f"or-grant v{self.vertex_id}"
        )

    def _grant_all(self) -> None:
        self._grant_scheduled = False
        if self.blocked:
            return  # blocked again; will re-schedule on unblock
        for requester in sorted(self.pending_grants):
            self._emit_grant(requester)

    def _emit_grant(self, requester: VertexId) -> None:
        self.pending_grants.discard(requester)
        self.ctx.trace(
            categories.OR_GRANT_SENT, source=self.vertex_id, target=requester
        )
        self.send(requester, Grant(granter=self.vertex_id))

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else "active"
        return f"OrVertexProcess(v{self.vertex_id}, {state})"
