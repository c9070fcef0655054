"""Shared builders for DDB tests, and reference oracle queries."""

from __future__ import annotations

from repro._ids import ProcessId, ResourceId, SiteId, TransactionId
from repro.basic.graph import EdgeColor
from repro.ddb.graph import DdbWaitForGraph
from repro.ddb.locks import LockMode
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, TransactionSpec, acquire

X = LockMode.EXCLUSIVE
S = LockMode.SHARED


def two_site_system(**kwargs) -> DdbSystem:
    """Two sites; r0 homed at S0, r1 homed at S1."""
    resources = {ResourceId("r0"): SiteId(0), ResourceId("r1"): SiteId(1)}
    return DdbSystem(n_sites=2, resources=resources, **kwargs)


def spec(tid: int, home: int, *operations) -> TransactionSpec:
    return TransactionSpec(
        tid=TransactionId(tid), home=SiteId(home), operations=tuple(operations)
    )


def cross_deadlock(system: DdbSystem, think: float = 1.0) -> None:
    """Admit the canonical two-transaction cross-site deadlock.

    T1 (home S0) takes r0 then wants r1; T2 (home S1) takes r1 then wants
    r0.  With ``think`` > message delay both second acquisitions collide.
    """
    system.begin(
        spec(1, 0, acquire(("r0", X)), Think(think), acquire(("r1", X))), at=0.0
    )
    system.begin(
        spec(2, 1, acquire(("r1", X)), Think(think), acquire(("r0", X))), at=0.1
    )


def ring_deadlock(n_sites: int, **kwargs) -> DdbSystem:
    """N transactions and N sites in a ring: T_i holds r_i (home S_i) and
    then requests r_{i+1 mod N}.  Deadlocks with one process pair per site.
    """
    resources = {ResourceId(f"r{i}"): SiteId(i) for i in range(n_sites)}
    system = DdbSystem(n_sites=n_sites, resources=resources, **kwargs)
    for i in range(n_sites):
        system.begin(
            spec(
                i + 1,
                i,
                acquire((f"r{i}", X)),
                Think(1.0),
                acquire((f"r{(i + 1) % n_sites}", X)),
            ),
            at=0.05 * i,
        )
    return system


def total_aborts(system: DdbSystem) -> int:
    """Aborts over every transaction and incarnation of the run."""
    return sum(record.aborts for record in system.transactions.values())


def dark_edges_by_colour(graph: DdbWaitForGraph) -> list[tuple[ProcessId, ProcessId]]:
    """The grey and black edges, filtered by colour from ``edges()`` rather
    than read from the oracle's dark index."""
    return [edge for edge, color in graph.edges() if color is not EdgeColor.WHITE]


def on_dark_cycle_by_colour(graph: DdbWaitForGraph, process: ProcessId) -> bool:
    """Reference for ``is_on_dark_cycle``: a walk over the colour-filtered
    edges from ``process`` back to itself."""
    successors: dict[ProcessId, list[ProcessId]] = {}
    for source, target in dark_edges_by_colour(graph):
        successors.setdefault(source, []).append(target)
    stack = list(successors.get(process, ()))
    visited: set[ProcessId] = set()
    while stack:
        current = stack.pop()
        if current == process:
            return True
        if current not in visited:
            visited.add(current)
            stack.extend(successors.get(current, ()))
    return False
