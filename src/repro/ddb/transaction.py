"""Transactions: specifications, runtime status, and per-process state.

A transaction is a straight-line program of operations executed by its
*home* process.  Each :class:`Acquire` names one or more resources with
lock modes; the home process blocks until **all** of them are acquired
(locally or through remote agents), matching the paper's AND model
("a process cannot proceed with its computation unless it acquires every
resource that it requests").  :class:`Think` models computation time
between lock steps.  After the last operation, the transaction commits,
releasing every lock at every site.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro._ids import ProcessId, ResourceId, SiteId, TransactionId
from repro.ddb.locks import LockMode
from repro.ddb.messages import EdgeRef
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Acquire:
    """Acquire every listed (resource, mode) pair before proceeding."""

    items: tuple[tuple[ResourceId, LockMode], ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ConfigurationError("Acquire needs at least one item")


def acquire(*items: tuple[str, LockMode]) -> Acquire:
    """Convenience constructor: ``acquire(("r1", LockMode.SHARED), ...)``."""
    return Acquire(items=tuple((ResourceId(rid), mode) for rid, mode in items))


@dataclass(frozen=True)
class Think:
    """Compute for ``duration`` virtual-time units holding current locks."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError(f"think duration must be >= 0, got {self.duration}")


Operation = Acquire | Think


@dataclass(frozen=True)
class TransactionSpec:
    """A transaction program: identity, home site, and operation list."""

    tid: TransactionId
    home: SiteId
    operations: tuple[Operation, ...]

    def resources(self) -> set[ResourceId]:
        """All resources this transaction ever touches."""
        result: set[ResourceId] = set()
        for operation in self.operations:
            if isinstance(operation, Acquire):
                result.update(rid for rid, _ in operation.items)
        return result

    @cached_property
    def home_process(self) -> ProcessId:
        """``(T_i, S_home)``, built once per spec: controllers compare
        against it on every lock grant, probe sweep and admission."""
        return ProcessId(transaction=self.tid, site=self.home)


class TransactionStatus(enum.Enum):
    """Lifecycle of one incarnation of a transaction."""

    RUNNING = "running"
    WAITING = "waiting"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class RemoteWait:
    """Home-side record of one outstanding remote acquisition (an outgoing
    inter-controller edge).

    ``edge`` is the one :class:`EdgeRef` the request carried; probe sweeps
    send it as is rather than rebuilding it.
    """

    edge: EdgeRef
    sent_at: float


@dataclass
class TransactionExecution:
    """Home-controller runtime state of one transaction incarnation."""

    spec: TransactionSpec
    incarnation: int
    started_at: float
    #: admission-order timestamp, retained across restarts (prevention)
    timestamp: int = 0
    status: TransactionStatus = TransactionStatus.RUNNING
    #: program counter into ``spec.operations``
    pc: int = 0
    #: local resources requested in the current Acquire and not yet granted
    waiting_local: set[ResourceId] = field(default_factory=set)
    #: local resources currently held by the home process
    held_local: set[ResourceId] = field(default_factory=set)
    #: remote sites with an outstanding RemoteAcquireRequest
    waiting_remote: dict[SiteId, RemoteWait] = field(default_factory=dict)
    #: sites (besides home) where this incarnation has or had an agent
    agent_sites: set[SiteId] = field(default_factory=set)

    @property
    def blocked(self) -> bool:
        return bool(self.waiting_local) or bool(self.waiting_remote)

    @property
    def finished(self) -> bool:
        return self.status in (TransactionStatus.COMMITTED, TransactionStatus.ABORTED)


@dataclass
class AgentRuntime:
    """Agent-side state of ``(T_i, S_m)`` at a non-home controller."""

    pid: ProcessId
    incarnation: int
    #: admission-order timestamp of the owning transaction (prevention)
    timestamp: int = 0
    #: resources held at this site
    held: set[ResourceId] = field(default_factory=set)
    #: the single in-progress inbound remote acquisition, if any
    inbound: "InboundAcquire | None" = None


@dataclass
class InboundAcquire:
    """A received RemoteAcquireRequest not yet fully granted.

    While this record exists, the inter-controller edge
    ``(origin, agent)`` is black at this controller -- exactly the local
    knowledge P3 grants ("an incoming black edge to any of its processes").
    """

    origin: ProcessId
    serial: int
    remaining: set[ResourceId]
    items: tuple[tuple[ResourceId, LockMode], ...]
