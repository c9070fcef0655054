"""Controllers: local operating systems of the DDB model (section 6.2).

A controller ``C_j``:

* schedules the processes at its computer (here: executes their state
  machines directly -- process/controller communication is "memory area +
  scheduling" in the paper, i.e. local and instantaneous),
* manages the resources homed at its computer through a lock table,
* forwards resource requests of its transactions to remote controllers and
  answers remote requests through agent processes ``(T_i, S_m)``,
* maintains the *local* wait-for knowledge the process axioms grant it
  (P3: it knows the existence of outgoing edges from its processes and the
  incoming black inter-controller edges to its processes),
* runs the probe computation of section 6.6 through an embedded
  :class:`~repro.ddb.detector.DdbDetector`.

The global oracle graph is updated alongside every transition for
verification; no protocol decision ever reads it.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

from repro._algo import discard_edge
from repro._ids import ProbeTag, ProcessId, ResourceId, SiteId, TransactionId
from repro.ddb.detector import DdbDetector
from repro.ddb.locks import LockMode, LockRequest, ResourceLock, compatible
from repro.ddb.messages import (
    AbortDemand,
    DdbProbe,
    DdbWfgdMessage,
    EdgeRef,
    RemoteAbort,
    RemoteAcquireGranted,
    RemoteAcquireRequest,
    RemoteRelease,
)
from repro.ddb.prevention import Decision
from repro.ddb.transaction import (
    Acquire,
    AgentRuntime,
    InboundAcquire,
    RemoteWait,
    Think,
    TransactionExecution,
    TransactionSpec,
    TransactionStatus,
)
from repro.ddb.wfgd import DdbWfgdState
from repro.errors import ProtocolError
from repro.sim import categories
from repro.sim.process import Process

ProcessEdge = tuple[ProcessId, ProcessId]


class Controller(Process):
    """The controller ``C_j`` at site ``S_j``."""

    def __init__(self, site: SiteId, system: "object") -> None:
        # ``system`` is a DdbSystem; typed loosely to avoid an import cycle.
        super().__init__(site)
        self.site = site
        self.system = system
        self.locks: dict[ResourceId, ResourceLock] = {}
        self.executions: dict[TransactionId, TransactionExecution] = {}
        self.agents: dict[TransactionId, AgentRuntime] = {}
        self.detector = DdbDetector(self)
        self.wfgd = DdbWfgdState(self)
        self._serial_counter = itertools.count(1)
        #: intra edges induced by each local resource (for diffing)
        self._resource_edges: dict[ResourceId, set[ProcessEdge]] = {}
        #: reference counts: several resources may induce the same edge
        self._intra_refs: dict[ProcessEdge, int] = {}
        #: waiter -> holders over the edges with a positive count: the
        #: intra edges leaving each local process (P3 knowledge, indexed)
        self._intra_out: dict[ProcessId, set[ProcessId]] = {}
        #: newest incarnation seen per transaction (stale-message guard)
        self._latest_incarnation: dict[TransactionId, int] = {}

    # ------------------------------------------------------------------
    # Shorthand
    # ------------------------------------------------------------------

    @property
    def oracle(self):
        return self.system.oracle

    def _resource_home(self, resource: ResourceId) -> SiteId:
        return self.system.resource_home[resource]

    def local_incarnation(self, tid: TransactionId) -> int:
        """The incarnation of ``tid`` as locally known (P3-style locality:
        only consulted for transactions with a local process)."""
        execution = self.executions.get(tid)
        if execution is not None:
            return execution.incarnation
        agent = self.agents.get(tid)
        if agent is not None:
            return agent.incarnation
        return self._latest_incarnation.get(tid, 0)

    def _lock(self, resource: ResourceId) -> ResourceLock:
        existing = self.locks.get(resource)
        if existing is None:
            if self._resource_home(resource) != self.site:
                raise ProtocolError(
                    f"resource {resource!r} is not homed at site {self.site}"
                )
            existing = ResourceLock(resource)
            self.locks[resource] = existing
        return existing

    # ------------------------------------------------------------------
    # Transaction admission and program execution (home side)
    # ------------------------------------------------------------------

    def begin(self, spec: TransactionSpec, incarnation: int, timestamp: int = 0) -> None:
        """Admit one incarnation of a transaction whose home is this site.

        ``timestamp`` is the admission-order priority used by prevention
        schemes; it is retained across restarts.
        """
        if spec.home != self.site:
            raise ProtocolError(
                f"transaction T{spec.tid} homed at S{spec.home}, not S{self.site}"
            )
        existing = self.executions.get(spec.tid)
        if existing is not None and not existing.finished:
            raise ProtocolError(f"transaction T{spec.tid} is already running")
        self._latest_incarnation[spec.tid] = incarnation
        self.executions[spec.tid] = TransactionExecution(
            spec=spec, incarnation=incarnation, started_at=self.now,
            timestamp=timestamp,
        )
        self.ctx.trace(
            categories.DDB_TXN_BEGIN, tid=spec.tid, incarnation=incarnation, site=self.site
        )
        self._advance(spec.tid)

    def _advance(self, tid: TransactionId) -> None:
        """Run the home process's program until it blocks, sleeps, or commits."""
        execution = self.executions[tid]
        if execution.finished or execution.blocked:
            return
        operations = execution.spec.operations
        while execution.pc < len(operations):
            operation = operations[execution.pc]
            execution.pc += 1
            if isinstance(operation, Think):
                execution.status = TransactionStatus.RUNNING
                self.ctx.set_timer(
                    operation.duration,
                    lambda tid=tid: self._advance(tid),
                    name=f"think T{tid}",
                )
                return
            if isinstance(operation, Acquire):
                self._do_acquire(execution, operation)
                if execution.blocked:
                    execution.status = TransactionStatus.WAITING
                    self.ctx.trace(
                        categories.DDB_TXN_BLOCKED, tid=tid, site=self.site
                    )
                    self.system.initiation.on_process_blocked(
                        self, execution.spec.home_process
                    )
                    return
                continue
            raise ProtocolError(f"unknown operation {operation!r}")
        self._commit(execution)

    def _do_acquire(self, execution: TransactionExecution, operation: Acquire) -> None:
        home_pid = execution.spec.home_process
        by_site: dict[SiteId, list[tuple[ResourceId, LockMode]]] = {}
        for resource, mode in operation.items:
            by_site.setdefault(self._resource_home(resource), []).append((resource, mode))

        for resource, mode in by_site.pop(self.site, []):
            outcome = self._request_with_prevention(
                home_pid, execution.timestamp, resource, mode
            )
            if outcome == "granted":
                execution.held_local.add(resource)
            else:
                # "waiting" enters the lock queue; "died" blocks outside it
                # until the already-scheduled abort fires.
                execution.waiting_local.add(resource)
                if outcome == "died":
                    self.ctx.set_timer(
                        0.0,
                        lambda tid=execution.spec.tid: self.abort_transaction(tid),
                        name=f"wait-die T{execution.spec.tid}",
                    )

        for site, items in sorted(by_site.items()):
            agent_pid = ProcessId(transaction=execution.spec.tid, site=site)
            serial = next(self._serial_counter)
            edge = EdgeRef(origin=home_pid, target=agent_pid, serial=serial)
            execution.waiting_remote[site] = RemoteWait(edge=edge, sent_at=self.now)
            execution.agent_sites.add(site)
            self.oracle.add_inter_edge(home_pid, agent_pid, serial)
            self.ctx.trace(
                categories.DDB_EDGE_ADDED, kind="inter", source=home_pid, target=agent_pid
            )
            self.send(
                site,
                RemoteAcquireRequest(
                    edge=edge,
                    transaction=execution.spec.tid,
                    incarnation=execution.incarnation,
                    items=tuple(items),
                    timestamp=execution.timestamp,
                ),
            )

    def _commit(self, execution: TransactionExecution) -> None:
        execution.status = TransactionStatus.COMMITTED
        home_pid = execution.spec.home_process
        for resource in sorted(execution.held_local):
            self._local_release(home_pid, resource)
        execution.held_local.clear()
        for site in sorted(execution.agent_sites):
            self.send(
                site,
                RemoteRelease(
                    transaction=execution.spec.tid, incarnation=execution.incarnation
                ),
            )
        self.detector.prune(home_pid)
        self.ctx.trace(
            categories.DDB_TXN_COMMITTED, tid=execution.spec.tid, site=self.site
        )
        self.system.on_transaction_finished(execution, aborted=False)

    # ------------------------------------------------------------------
    # Local lock operations with oracle/edge maintenance
    # ------------------------------------------------------------------

    def _local_request(self, pid: ProcessId, resource: ResourceId, mode: LockMode) -> bool:
        lock = self._lock(resource)
        granted = lock.request(pid, mode)
        self._sync_resource_edges(resource)
        return granted

    def _local_release(self, pid: ProcessId, resource: ResourceId) -> None:
        lock = self._lock(resource)
        newly_granted = lock.release(pid)
        self._sync_resource_edges(resource)
        self._process_grants(resource, newly_granted)
        if newly_granted:
            self._reconsult_waiters(resource)

    def _local_timestamp(self, pid: ProcessId) -> int:
        execution = self.executions.get(pid.transaction)
        if execution is not None and execution.spec.home_process == pid:
            return execution.timestamp
        agent = self.agents.get(pid.transaction)
        if agent is not None and agent.pid == pid:
            return agent.timestamp
        return 0

    def _request_with_prevention(
        self, pid: ProcessId, timestamp: int, resource: ResourceId, mode: LockMode
    ) -> str:
        """Lock request with optional prevention-scheme mediation.

        Returns "granted", "waiting", or "died".  A "died" requester was
        NOT enqueued; the caller marks it blocked and schedules its abort.
        Wounds (forced aborts of younger holders) are dispatched here.
        """
        prevention = getattr(self.system, "prevention", None)
        if prevention is not None:
            lock = self._lock(resource)
            blockers = [
                (holder, self._local_timestamp(holder))
                for holder, held_mode in lock.holders.items()
                if holder != pid and not compatible(held_mode, mode)
            ]
            if blockers:
                decision, wounded = prevention.on_conflict(pid, timestamp, blockers)
                for victim in wounded:
                    self.ctx.count("ddb.prevention.wounds")
                    self._demand_forced_abort(victim)
                if decision is Decision.DIE:
                    self.ctx.count("ddb.prevention.deaths")
                    return "died"
        if self._local_request(pid, resource, mode):
            # A new holder appeared: re-consult for the waiters it now
            # blocks (grant-any-compatible can create conflicts that were
            # not visible at their own request time).
            self._reconsult_waiters(resource)
            return "granted"
        return "waiting"

    def _reconsult_waiters(self, resource: ResourceId) -> None:
        """Re-apply the prevention policy to waiting requests.

        Called whenever the holder set of ``resource`` changes: a waiter
        admitted under one holder set may now conflict with a holder the
        scheme orders differently (classic wound-wait/wait-die re-check).
        """
        prevention = getattr(self.system, "prevention", None)
        if prevention is None:
            return
        lock = self.locks.get(resource)
        if lock is None:
            return
        for waiter in list(lock.waiters):
            blockers = [
                (holder, self._local_timestamp(holder))
                for holder, held_mode in lock.holders.items()
                if holder != waiter.process
                and not compatible(held_mode, waiter.mode)
            ]
            if not blockers:
                continue
            decision, wounded = prevention.on_conflict(
                waiter.process, self._local_timestamp(waiter.process), blockers
            )
            for victim in wounded:
                self.ctx.count("ddb.prevention.wounds")
                self._demand_forced_abort(victim)
            if decision is Decision.DIE:
                self.ctx.count("ddb.prevention.deaths")
                self._demand_forced_abort(waiter.process.transaction)

    def _demand_forced_abort(self, tid: TransactionId) -> None:
        home = self.system.transaction_home(tid)
        if home == self.site:
            self.ctx.set_timer(
                0.0,
                lambda: self.abort_transaction(tid),
                name=f"wound T{tid}",
            )
        else:
            self.send(
                home,
                AbortDemand(
                    transaction=tid,
                    incarnation=self.local_incarnation(tid),
                    force=True,
                ),
            )

    def _sync_resource_edges(self, resource: ResourceId, force: bool = False) -> None:
        """Diff the wait edges induced by ``resource`` against the oracle
        and the local intra adjacency."""
        lock = self.locks.get(resource)
        new_edges = lock.all_wait_edges() if lock is not None else set()
        old_edges = self._resource_edges.get(resource, set())
        for edge in sorted(new_edges - old_edges):
            count = self._intra_refs.get(edge, 0)
            self._intra_refs[edge] = count + 1
            if count == 0:
                self._intra_out.setdefault(edge[0], set()).add(edge[1])
                self.oracle.add_intra_edge(*edge)
                self.ctx.trace(
                    categories.DDB_EDGE_ADDED, kind="intra", source=edge[0], target=edge[1]
                )
                # WFGD persistent-send rule: a new waiter on an informed
                # process is informed immediately.
                self.wfgd.on_new_predecessor(edge[0], edge[1])
        for edge in sorted(old_edges - new_edges):
            count = self._intra_refs[edge] - 1
            if count == 0:
                del self._intra_refs[edge]
                discard_edge(self._intra_out, *edge)
                if force:
                    self.oracle.force_remove_intra_edge(*edge)
                else:
                    self.oracle.remove_intra_edge(*edge)
            else:
                self._intra_refs[edge] = count
        if new_edges:
            self._resource_edges[resource] = new_edges
        else:
            self._resource_edges.pop(resource, None)

    def _process_grants(self, resource: ResourceId, granted: list[LockRequest]) -> None:
        """Route lock grants to their owning home execution or agent."""
        for request in granted:
            pid = request.process
            if pid.site != self.site:
                raise ProtocolError(f"granted a lock to non-local process {pid}")
            execution = self.executions.get(pid.transaction)
            if execution is not None and execution.spec.home_process == pid:
                execution.waiting_local.discard(resource)
                execution.held_local.add(resource)
                if not execution.blocked and not execution.finished:
                    execution.status = TransactionStatus.RUNNING
                    self.detector.prune(pid)
                    self.system.initiation.on_process_unblocked(self, pid)
                    self._advance(pid.transaction)
                continue
            agent = self.agents.get(pid.transaction)
            if agent is None or agent.pid != pid:
                raise ProtocolError(f"granted a lock to unknown process {pid}")
            agent.held.add(resource)
            if agent.inbound is not None:
                agent.inbound.remaining.discard(resource)
                if not agent.inbound.remaining:
                    self._complete_inbound(agent)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, sender: Hashable, message: object) -> None:
        if isinstance(message, RemoteAcquireRequest):
            self._on_remote_acquire(message)
        elif isinstance(message, RemoteAcquireGranted):
            self._on_remote_granted(message)
        elif isinstance(message, RemoteRelease):
            self._on_remote_release(message)
        elif isinstance(message, RemoteAbort):
            self._abort_agent(message.transaction, message.incarnation)
        elif isinstance(message, AbortDemand):
            self._on_abort_demand(message)
        elif isinstance(message, DdbProbe):
            self.detector.on_probe(message)
        elif isinstance(message, DdbWfgdMessage):
            if message.destination.site != self.site:
                raise ProtocolError(
                    f"WFGD message for {message.destination} delivered to C{self.site}"
                )
            self.wfgd.absorb(message.destination, message.edges)
        else:
            raise ProtocolError(f"controller C{self.site} got unknown {message!r}")

    def _stale(self, tid: TransactionId, incarnation: int) -> bool:
        latest = self._latest_incarnation.get(tid)
        if latest is not None and incarnation < latest:
            return True
        self._latest_incarnation[tid] = incarnation
        return False

    def _on_remote_acquire(self, message: RemoteAcquireRequest) -> None:
        if self._stale(message.transaction, message.incarnation):
            return
        agent = self.agents.get(message.transaction)
        if agent is None or agent.incarnation != message.incarnation:
            agent = AgentRuntime(
                pid=message.edge.target,
                incarnation=message.incarnation,
                timestamp=message.timestamp,
            )
            self.agents[message.transaction] = agent
        if agent.inbound is not None:
            raise ProtocolError(
                f"agent {agent.pid} received overlapping remote acquisitions"
            )
        # The request's arrival blackens the inter edge (no-op if the
        # transaction aborted while the request was in flight).
        self.oracle.blacken_inter_edge(
            message.edge.origin, message.edge.target, message.edge.serial
        )
        self.wfgd.on_new_predecessor(message.edge.origin, message.edge.target)
        inbound = InboundAcquire(
            origin=message.edge.origin,
            serial=message.edge.serial,
            remaining=set(),
            items=message.items,
        )
        agent.inbound = inbound
        died = False
        for resource, mode in message.items:
            outcome = self._request_with_prevention(
                agent.pid, agent.timestamp, resource, mode
            )
            if outcome == "granted":
                agent.held.add(resource)
            else:
                inbound.remaining.add(resource)
                died |= outcome == "died"
        if died:
            # Wait-die at a remote site: the requesting TRANSACTION dies;
            # its home controller performs the abort (which will clean this
            # agent up via the usual RemoteAbort).
            self._demand_forced_abort(message.transaction)
            return
        if not inbound.remaining:
            self._complete_inbound(agent)
        else:
            self.ctx.trace(categories.DDB_AGENT_BLOCKED, pid=agent.pid)
            self.system.initiation.on_process_blocked(self, agent.pid)

    def _complete_inbound(self, agent: AgentRuntime) -> None:
        inbound = agent.inbound
        assert inbound is not None
        agent.inbound = None
        self.detector.prune(agent.pid)
        self.system.initiation.on_process_unblocked(self, agent.pid)
        self.oracle.whiten_inter_edge(inbound.origin, agent.pid, inbound.serial)
        self.send(
            inbound.origin.site,
            RemoteAcquireGranted(
                edge=EdgeRef(origin=inbound.origin, target=agent.pid, serial=inbound.serial)
            ),
        )

    def _on_remote_granted(self, message: RemoteAcquireGranted) -> None:
        edge = message.edge
        execution = self.executions.get(edge.origin.transaction)
        if execution is None or execution.finished:
            return
        wait = execution.waiting_remote.get(edge.target.site)
        if wait is None or wait.edge.serial != edge.serial:
            return
        self.oracle.delete_inter_edge(edge.origin, edge.target, edge.serial)
        del execution.waiting_remote[edge.target.site]
        if not execution.blocked:
            execution.status = TransactionStatus.RUNNING
            self.detector.prune(edge.origin)
            self.system.initiation.on_process_unblocked(self, edge.origin)
            self._advance(edge.origin.transaction)

    def _on_remote_release(self, message: RemoteRelease) -> None:
        agent = self.agents.get(message.transaction)
        if agent is None or agent.incarnation != message.incarnation:
            return
        if agent.inbound is not None:
            raise ProtocolError(
                f"agent {agent.pid} released while an acquisition is in progress"
            )
        for resource in sorted(agent.held):
            self._local_release(agent.pid, resource)
        del self.agents[message.transaction]

    # ------------------------------------------------------------------
    # Abort path (resolution extension)
    # ------------------------------------------------------------------

    def _on_abort_demand(self, message: AbortDemand) -> None:
        execution = self.executions.get(message.transaction)
        if (
            execution is None
            or execution.finished
            or execution.incarnation != message.incarnation
        ):
            return
        if not execution.blocked and not message.force:
            # The deadlock was already broken by another victim and this
            # transaction has resumed; aborting it now would be wasted work.
            # (Prevention wounds set ``force``: they must preempt running
            # transactions.)
            return
        self.abort_transaction(message.transaction)

    def abort_transaction(self, tid: TransactionId) -> None:
        """Abort the current incarnation of a home transaction."""
        execution = self.executions.get(tid)
        if execution is None or execution.finished:
            return
        execution.status = TransactionStatus.ABORTED
        home_pid = execution.spec.home_process
        # 1. Cancel local waiting requests (force: targets may be blocked).
        for resource in sorted(execution.waiting_local):
            lock = self._lock(resource)
            lock.cancel(home_pid)
            self._sync_resource_edges(resource, force=True)
        execution.waiting_local.clear()
        # 2. Drop outgoing inter edges (the agent-side state is cleaned by
        #    the RemoteAbort that follows on the same FIFO channel).
        for wait in execution.waiting_remote.values():
            self.oracle.force_remove_inter_edge(home_pid, wait.edge.target)
        execution.waiting_remote.clear()
        # 3. Release locally held locks (home now has no outgoing edges).
        for resource in sorted(execution.held_local):
            self._local_release(home_pid, resource)
        execution.held_local.clear()
        # 4. Tell every agent site.
        for site in sorted(execution.agent_sites):
            self.send(
                site,
                RemoteAbort(transaction=tid, incarnation=execution.incarnation),
            )
        self.detector.prune(home_pid)
        self.system.initiation.on_process_unblocked(self, home_pid)
        self.ctx.trace(categories.DDB_TXN_ABORTED, tid=tid, site=self.site)
        self.system.on_transaction_finished(execution, aborted=True)

    def _abort_agent(self, tid: TransactionId, incarnation: int) -> None:
        agent = self.agents.get(tid)
        if agent is None or agent.incarnation != incarnation:
            return
        if agent.inbound is not None:
            for resource in sorted(agent.inbound.remaining):
                lock = self._lock(resource)
                lock.cancel(agent.pid)
                self._sync_resource_edges(resource, force=True)
            agent.inbound = None
        for resource in sorted(agent.held):
            self._local_release(agent.pid, resource)
        self.detector.prune(agent.pid)
        self.system.initiation.on_process_unblocked(self, agent.pid)
        del self.agents[tid]

    # ------------------------------------------------------------------
    # Local knowledge for the detector (process axiom P3)
    # ------------------------------------------------------------------

    def intra_successors(self, pid: ProcessId) -> set[ProcessId]:
        """Processes ``pid`` waits for along intra-controller edges: the
        holders blocking its waiting lock requests, read from the adjacency
        :meth:`_sync_resource_edges` keeps in step with the lock tables."""
        return set(self._intra_out.get(pid, ()))

    def _held_resources(self, pid: ProcessId) -> set[ResourceId]:
        execution = self.executions.get(pid.transaction)
        if execution is not None and execution.spec.home_process == pid:
            return set(execution.held_local)
        agent = self.agents.get(pid.transaction)
        if agent is not None and agent.pid == pid:
            return set(agent.held)
        return set()

    def intra_predecessors(self, pid: ProcessId) -> set[ProcessId]:
        """Local processes with a black intra edge into ``pid`` (waiters
        blocked on resources ``pid`` holds)."""
        result: set[ProcessId] = set()
        for resource in self._held_resources(pid):
            lock = self.locks.get(resource)
            if lock is None:
                continue
            for waiter, holder in lock.all_wait_edges():
                if holder == pid:
                    result.add(waiter)
        return result

    def inter_predecessor(self, pid: ProcessId) -> ProcessId | None:
        """The origin of ``pid``'s unanswered inbound remote acquisition
        (the incoming black inter edge), if any."""
        agent = self.agents.get(pid.transaction)
        if agent is not None and agent.pid == pid and agent.inbound is not None:
            return agent.inbound.origin
        return None

    def intra_closure(
        self, start: Iterable[ProcessId], stop: ProcessId | None = None
    ) -> set[ProcessId]:
        """``start`` plus everything reachable from it along intra edges.

        ``stop`` (if given) is included when reached but never expanded --
        it models the computation's initiator process, which per step A1
        declares rather than propagating when a probe reaches it.
        """
        reached: set[ProcessId] = set(start)
        stack = [p for p in reached if p != stop]
        intra_out = self._intra_out
        while stack:
            for successor in intra_out.get(stack.pop(), ()):
                if successor not in reached:
                    reached.add(successor)
                    if successor != stop:
                        stack.append(successor)
        return reached

    def outgoing_inter_edges(self, pid: ProcessId) -> list[EdgeRef]:
        """Inter-controller edges leaving ``pid`` (home processes only)."""
        execution = self.executions.get(pid.transaction)
        if execution is None or execution.spec.home_process != pid or execution.finished:
            return []
        return [wait.edge for _, wait in sorted(execution.waiting_remote.items())]

    def inter_edge_black(self, edge: EdgeRef) -> bool:
        """P3: is ``edge`` an incoming black inter edge at this controller?"""
        agent = self.agents.get(edge.target.transaction)
        return (
            agent is not None
            and agent.pid == edge.target
            and agent.inbound is not None
            and agent.inbound.origin == edge.origin
            and agent.inbound.serial == edge.serial
        )

    def is_process_blocked(self, pid: ProcessId) -> bool:
        """Does the local process ``pid`` currently have outgoing edges?"""
        execution = self.executions.get(pid.transaction)
        if execution is not None and execution.spec.home_process == pid:
            return not execution.finished and execution.blocked
        agent = self.agents.get(pid.transaction)
        return (
            agent is not None
            and agent.pid == pid
            and agent.inbound is not None
            and bool(agent.inbound.remaining)
        )

    def blocked_processes(self) -> list[ProcessId]:
        """All local processes with outgoing edges, in deterministic order."""
        result: list[ProcessId] = []
        for execution in self.executions.values():
            if not execution.finished and execution.blocked:
                result.append(execution.spec.home_process)
        for agent in self.agents.values():
            if agent.inbound is not None and agent.inbound.remaining:
                result.append(agent.pid)
        return sorted(result)

    def find_local_cycle_member(self) -> ProcessId | None:
        """A process on a purely intra-controller cycle, if any (6.7)."""
        for process in self.blocked_processes():
            if process in self.intra_closure(self.intra_successors(process)):
                return process
        return None

    def processes_with_incoming_black_inter_edges(self) -> list[ProcessId]:
        """The Q candidate processes of section 6.7."""
        return sorted(
            agent.pid for agent in self.agents.values() if agent.inbound is not None
        )

    # ------------------------------------------------------------------
    # Detection entry points
    # ------------------------------------------------------------------

    def initiate_for(self, process: ProcessId) -> ProbeTag:
        """Start a probe computation about ``process`` (step A0)."""
        return self.detector.initiate(process)

    def send_probe(self, site: SiteId, probe: DdbProbe) -> None:
        self.ctx.trace(
            categories.DDB_PROBE_SENT, site=self.site, destination=site, tag=probe.tag,
            edge=probe.edge,
        )
        self.send(site, probe)

    def declare_deadlock(self, process: ProcessId, tag: ProbeTag) -> None:
        self.ctx.trace(
            categories.DDB_DEADLOCK_DECLARED, site=self.site, process=process, tag=tag
        )
        if getattr(self.system, "wfgd_on_declare", False):
            self.wfgd.seed(process)
        self.system.handle_declaration(self, process, tag)

    def __repr__(self) -> str:
        return (
            f"Controller(S{self.site}, executions={len(self.executions)}, "
            f"agents={len(self.agents)})"
        )
