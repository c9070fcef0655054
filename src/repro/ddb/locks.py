"""Read/write locks with "grant any compatible" queueing.

The paper notes that "the details regarding locks and locking protocols are
not relevant to the problem" -- what matters is the wait-for graph they
induce.  We implement the standard two-mode scheme (shared / exclusive)
with these semantics:

* a request compatible with all current holders is granted immediately,
  even if incompatible requests arrived earlier ("grant any compatible",
  i.e. no strict FIFO).  This keeps the blocking relation exactly "waiter
  w waits for the holders whose locks are incompatible with w's request",
  which is the Menasce-Muntz wait-for edge definition;
* lock *upgrades* (a shared holder requesting exclusive) are supported and
  wait for the other shared holders -- a classic deadlock generator
  (two upgraders deadlock each other);
* re-requesting a mode already held (or weaker) is a no-op grant.

Starvation of exclusive requests is possible under this policy; it is
irrelevant here because experiments bound virtual time and deadlock -- not
scheduling fairness -- is the object of study.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._ids import ProcessId, ResourceId
from repro.errors import ProtocolError


class LockMode(enum.Enum):
    """Lock modes; SHARED is compatible only with SHARED."""

    SHARED = "S"
    EXCLUSIVE = "X"


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Mode compatibility matrix: S/S only."""
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass
class LockRequest:
    """A waiting lock request."""

    process: ProcessId
    mode: LockMode


class ResourceLock:
    """Lock state of one resource: holders plus waiting requests."""

    def __init__(self, resource: ResourceId) -> None:
        self.resource = resource
        self.holders: dict[ProcessId, LockMode] = {}
        self.waiters: list[LockRequest] = []

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def request(self, process: ProcessId, mode: LockMode) -> bool:
        """Request ``mode`` for ``process``; return True iff granted now.

        A process may hold at most one mode per resource; requesting while
        already waiting on the same resource is a protocol error (the
        transaction model never issues overlapping requests).
        """
        if any(waiter.process == process for waiter in self.waiters):
            raise ProtocolError(
                f"{process} already waits for {self.resource}; overlapping request"
            )
        held = self.holders.get(process)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # already held in a sufficient mode
            # Upgrade S -> X: grantable iff sole holder.
            if len(self.holders) == 1:
                self.holders[process] = LockMode.EXCLUSIVE
                return True
            self.waiters.append(LockRequest(process, mode))
            return False
        if self._grantable(process, mode):
            self.holders[process] = mode
            return True
        self.waiters.append(LockRequest(process, mode))
        return False

    def _grantable(self, process: ProcessId, mode: LockMode) -> bool:
        return all(
            compatible(held_mode, mode)
            for holder, held_mode in self.holders.items()
            if holder != process
        )

    # ------------------------------------------------------------------
    # Release / cancel
    # ------------------------------------------------------------------

    def release(self, process: ProcessId) -> list[LockRequest]:
        """Release ``process``'s lock and return newly granted requests.

        Granting sweeps the wait list in arrival order, granting every
        request now compatible (including upgrades that became sole-holder).
        """
        if process not in self.holders:
            raise ProtocolError(f"{process} holds no lock on {self.resource}")
        del self.holders[process]
        return self._sweep()

    def cancel(self, process: ProcessId) -> bool:
        """Remove ``process``'s waiting request (victim abort).  Returns
        True if a waiting request was removed."""
        before = len(self.waiters)
        self.waiters = [w for w in self.waiters if w.process != process]
        return len(self.waiters) != before

    def release_or_cancel(self, process: ProcessId) -> list[LockRequest]:
        """Abort path: drop any waiting request and any held lock."""
        self.cancel(process)
        if process in self.holders:
            return self.release(process)
        return []

    def _sweep(self) -> list[LockRequest]:
        granted: list[LockRequest] = []
        remaining: list[LockRequest] = []
        for waiter in self.waiters:
            held = self.holders.get(waiter.process)
            if held is not None:
                # Upgrade request: grantable iff it is now the sole holder.
                if len(self.holders) == 1:
                    self.holders[waiter.process] = waiter.mode
                    granted.append(waiter)
                else:
                    remaining.append(waiter)
            elif self._grantable(waiter.process, waiter.mode):
                self.holders[waiter.process] = waiter.mode
                granted.append(waiter)
            else:
                remaining.append(waiter)
        self.waiters = remaining
        return granted

    # ------------------------------------------------------------------
    # Wait-for derivation
    # ------------------------------------------------------------------

    def waits_for(self, process: ProcessId) -> set[ProcessId]:
        """Holders that block ``process``'s waiting request (if any).

        This is exactly the Menasce-Muntz intra-controller wait-for edge
        set contributed by this resource.
        """
        for waiter in self.waiters:
            if waiter.process == process:
                return {
                    holder
                    for holder, held_mode in self.holders.items()
                    if holder != process and not compatible(held_mode, waiter.mode)
                }
        return set()

    def all_wait_edges(self) -> set[tuple[ProcessId, ProcessId]]:
        """All (waiter, holder) pairs this resource currently induces.

        :func:`compatible` inline: an exclusive request waits for every
        other holder, a shared one for the other exclusive holders.
        """
        edges: set[tuple[ProcessId, ProcessId]] = set()
        holders = self.holders
        exclusive = LockMode.EXCLUSIVE
        for waiter in self.waiters:
            process = waiter.process
            if waiter.mode is exclusive:
                for holder in holders:
                    if holder != process:
                        edges.add((process, holder))
            else:
                for holder, held_mode in holders.items():
                    if held_mode is exclusive and holder != process:
                        edges.add((process, holder))
        return edges

    @property
    def idle(self) -> bool:
        """No holders and no waiters."""
        return not self.holders and not self.waiters

    def __repr__(self) -> str:
        return (
            f"ResourceLock({self.resource!r}, holders={len(self.holders)}, "
            f"waiters={len(self.waiters)})"
        )
