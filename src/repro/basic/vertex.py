"""Vertex processes: the underlying computation of the basic model.

A :class:`VertexProcess` implements a process ``p_i`` of section 2:

* it may **request** actions from other processes (creating grey edges,
  axiom G1) and is then *blocked* until **all** replies arrive (the
  AND / resource model that distinguishes this paper from the
  communication-model work in its reference [1]);
* while **active** (no outgoing edges) it services pending requests after a
  service delay, sending replies (axiom G3: only active processes reply);
* it participates in probe computations through an embedded
  :class:`~repro.basic.detector.ProbeEngine` and in the WFGD computation
  through a :class:`~repro.basic.wfgd.WfgdParticipant`.

Local knowledge is kept scrupulously local (axiom P3): ``pending_out`` is
"my outgoing edges exist" (colour unknown to me), ``pending_in`` is "my
incoming black edges".  The global oracle graph is updated on every
transition purely for verification; no protocol decision reads it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from repro._ids import ProbeTag, VertexId
from repro.basic.detector import ProbeEngine
from repro.basic.graph import WaitForGraph
from repro.basic.messages import Probe, Reply, Request, WfgdMessage
from repro.basic.wfgd import WfgdParticipant
from repro.errors import ProtocolError
from repro.sim import categories
from repro.sim.process import Process


class VertexProcess(Process):
    """One process / vertex of the basic model.

    Parameters
    ----------
    vertex_id:
        This vertex's id.
    oracle:
        The global coloured graph, updated (and axiom-checked) on every
        transition.  Used for verification only.
    service_delay:
        Virtual-time delay between a request being eligible for service and
        the reply being sent.
    auto_reply:
        When True (default), an active vertex automatically services its
        pending requests; when False the driver must call :meth:`reply_to`,
        which scripted scenario tests use for precise control.
    on_declare:
        Optional callback ``(vertex, tag)`` fired when this vertex declares
        itself deadlocked (step A1).
    on_unblocked:
        Optional callback ``(vertex)`` fired when the last outstanding reply
        arrives and the vertex becomes active again.
    """

    def __init__(
        self,
        vertex_id: VertexId,
        oracle: WaitForGraph,
        service_delay: float = 1.0,
        auto_reply: bool = True,
        on_declare: Callable[["VertexProcess", ProbeTag], None] | None = None,
        on_unblocked: Callable[["VertexProcess"], None] | None = None,
    ) -> None:
        super().__init__(vertex_id)
        self.vertex_id = vertex_id
        self.oracle = oracle
        self.service_delay = service_delay
        self.auto_reply = auto_reply
        self._on_declare = on_declare
        #: Optional callback fired when the vertex unblocks; public so that
        #: workload drivers can (re)assign it after construction.
        self.unblocked_callback = on_unblocked
        #: Outgoing requests with no reply yet: "my outgoing edges exist".
        self.pending_out: set[VertexId] = set()
        #: Requests received and not replied to: "my incoming black edges".
        self.pending_in: set[VertexId] = set()
        self._service_scheduled = False
        #: Optional overlay hook: called for message types the vertex does
        #: not understand; return True to consume the message.  Lets
        #: overlay protocols (e.g. the Chandy-Lamport snapshot detector)
        #: ride the same FIFO channels as the underlying computation --
        #: which marker algorithms require.
        self.foreign_handler: Callable[[VertexId, object], bool] | None = None
        self.engine = ProbeEngine(
            vertex=vertex_id,
            send_probe=self._send_probe,
            declare_deadlock=self._declare_deadlock,
        )
        self.wfgd = WfgdParticipant(
            vertex=vertex_id,
            send=self._send_wfgd,
            incoming_black=lambda: set(self.pending_in),
        )
        from repro.basic.initiation import InitiationPolicy, ManualInitiation

        self.initiation: InitiationPolicy = ManualInitiation()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def blocked(self) -> bool:
        """A process is blocked iff it awaits at least one reply."""
        return bool(self.pending_out)

    @property
    def active(self) -> bool:
        return not self.pending_out

    @property
    def deadlocked(self) -> bool:
        """Locally-known deadlock: declared via A1, or informed via WFGD."""
        return self.engine.deadlocked or self.wfgd.knows_deadlocked

    # ------------------------------------------------------------------
    # Driver API: the underlying computation
    # ------------------------------------------------------------------

    def request(self, targets: Iterable[VertexId]) -> None:
        """Send requests to ``targets``, blocking until all reply (G1).

        ``targets`` must not include this vertex or any vertex already
        waited on (G1 forbids duplicate edges).
        """
        batch = sorted(set(targets))
        if not batch:
            return
        for target in batch:
            if target == self.vertex_id:
                raise ProtocolError(f"vertex {self.vertex_id} cannot request itself")
            if target in self.pending_out:
                raise ProtocolError(
                    f"vertex {self.vertex_id} already waits for {target} (G1)"
                )
        for target in batch:
            self.oracle.create_edge(self.vertex_id, target)
            self.pending_out.add(target)
            self.ctx.trace(
                categories.BASIC_REQUEST_SENT, source=self.vertex_id, target=target
            )
            self.send(target, Request(requester=self.vertex_id))
        self.initiation.on_edges_added(self, batch)

    def reply_to(self, requester: VertexId) -> None:
        """Manually reply to a pending request (driver use, auto_reply=False).

        Enforces G3: only an active process may reply.
        """
        if requester not in self.pending_in:
            raise ProtocolError(
                f"vertex {self.vertex_id} has no pending request from {requester}"
            )
        if self.blocked:
            raise ProtocolError(
                f"vertex {self.vertex_id} is blocked and may not reply (G3)"
            )
        self._emit_reply(requester)

    # ------------------------------------------------------------------
    # Detection API
    # ------------------------------------------------------------------

    def initiate_probe_computation(self) -> ProbeTag:
        """Step A0: begin a new probe computation from this vertex."""
        self.ctx.count("basic.computations.initiated")
        self.ctx.trace(
            categories.BASIC_COMPUTATION_INITIATED,
            vertex=self.vertex_id,
            tag=self.engine.next_tag(),
        )
        return self.engine.initiate(self.pending_out)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, sender: Hashable, message: object) -> None:
        if isinstance(message, Request):
            self._on_request(message)
        elif isinstance(message, Reply):
            self._on_reply(message)
        elif isinstance(message, Probe):
            self._on_probe(VertexId(int(sender)), message)  # type: ignore[arg-type]
        elif isinstance(message, WfgdMessage):
            self.wfgd.on_message(message)
        else:
            if self.foreign_handler is not None and self.foreign_handler(
                VertexId(int(sender)), message  # type: ignore[arg-type]
            ):
                return
            raise ProtocolError(
                f"vertex {self.vertex_id} received unknown message {message!r}"
            )

    def _on_request(self, message: Request) -> None:
        requester = message.requester
        if requester in self.pending_in:
            raise ProtocolError(
                f"duplicate request from {requester} at vertex {self.vertex_id}"
            )
        self.pending_in.add(requester)
        self.oracle.blacken(requester, self.vertex_id)
        self.ctx.trace(
            categories.BASIC_REQUEST_RECEIVED, source=requester, target=self.vertex_id
        )
        # Section 5 persistent-send rule: if this vertex already knows it
        # is deadlocked, the new incoming black edge is permanent and its
        # source must be informed.
        self.wfgd.on_new_predecessor(requester)
        if self.auto_reply:
            self._schedule_service()

    def _on_reply(self, message: Reply) -> None:
        replier = message.replier
        if replier not in self.pending_out:
            raise ProtocolError(
                f"vertex {self.vertex_id} got a reply from {replier} it never requested"
            )
        self.pending_out.discard(replier)
        self.oracle.delete_edge(self.vertex_id, replier)
        self.ctx.trace(
            categories.BASIC_REPLY_RECEIVED, source=replier, target=self.vertex_id
        )
        self.initiation.on_edge_removed(self, replier)
        if self.active:
            self.ctx.trace(categories.BASIC_UNBLOCKED, vertex=self.vertex_id)
            if self.auto_reply:
                self._schedule_service()
            if self.unblocked_callback is not None:
                self.unblocked_callback(self)

    def _on_probe(self, sender: VertexId, probe: Probe) -> None:
        self.ctx.trace(
            categories.BASIC_PROBE_RECEIVED,
            source=sender,
            target=self.vertex_id,
            tag=probe.tag,
            meaningful=sender in self.pending_in,
        )
        self.engine.on_probe(
            sender=sender,
            probe=probe,
            incoming_edge_black=sender in self.pending_in,
            outgoing=self.pending_out,
        )

    # ------------------------------------------------------------------
    # Service (replying)
    # ------------------------------------------------------------------

    def _schedule_service(self) -> None:
        if self._service_scheduled or not self.pending_in or self.blocked:
            return
        self._service_scheduled = True
        self.ctx.set_timer(
            self.service_delay, self._service_all, name=f"service v{self.vertex_id}"
        )

    def _service_all(self) -> None:
        self._service_scheduled = False
        if self.blocked:
            # Blocked again since scheduling; G3 forbids replying now.  The
            # service will be rescheduled when this vertex unblocks.
            return
        for requester in sorted(self.pending_in):
            self._emit_reply(requester)

    def _emit_reply(self, requester: VertexId) -> None:
        self.pending_in.discard(requester)
        self.oracle.whiten(requester, self.vertex_id)
        self.ctx.trace(
            categories.BASIC_REPLY_SENT, source=self.vertex_id, target=requester
        )
        self.send(requester, Reply(replier=self.vertex_id))

    # ------------------------------------------------------------------
    # Outbound detection traffic
    # ------------------------------------------------------------------

    def _send_probe(self, target: VertexId, probe: Probe) -> None:
        self.ctx.trace(
            categories.BASIC_PROBE_SENT, source=self.vertex_id, target=target, tag=probe.tag
        )
        self.send(target, probe)

    def _send_wfgd(self, target: VertexId, message: WfgdMessage) -> None:
        self.ctx.count("basic.wfgd.sent")
        self.send(target, message)

    def _declare_deadlock(self, tag: ProbeTag) -> None:
        self.ctx.trace(
            categories.BASIC_DEADLOCK_DECLARED, vertex=self.vertex_id, tag=tag
        )
        if self._on_declare is not None:
            self._on_declare(self, tag)

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else "active"
        return f"VertexProcess(v{self.vertex_id}, {state}, out={sorted(self.pending_out)})"
