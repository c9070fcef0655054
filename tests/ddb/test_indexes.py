"""The DDB hot-path indexes agree with the state they index, after every event.

A controller answers P3 questions from an intra adjacency it keeps in
step with its lock tables, and sends the :class:`EdgeRef` each remote
wait already holds; the oracle records formation times with a
closing-edge check over its dark adjacency.  Each test here recomputes
the indexed answer the direct way -- from the lock tables, from
``waiting_remote``, from a colour-filtered walk over ``oracle.edges()``
-- on random ``ddb-hot`` runs with exponential delays, with and without
victim restart and under a prevention scheme.
"""

from __future__ import annotations

import pytest

from repro._ids import ProcessId
from repro.core.engine import dark_components
from repro.core.registry import get_variant
from repro.ddb.controller import Controller
from repro.ddb.messages import EdgeRef
from repro.ddb.prevention import WoundWait
from repro.ddb.resolution import AbortLowestTransactionInCycle
from repro.ddb.system import DdbSystem, uniform_resources
from repro.sim import categories
from repro.sim.network import ExponentialDelay
from repro.sim.trace import TraceEvent
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, make_params
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

from tests.ddb.helpers import dark_edges_by_colour, on_dark_cycle_by_colour

SEEDS = (3, 17, 52, 90, 1234)


def lock_derived_successors(controller: Controller, pid: ProcessId) -> set[ProcessId]:
    """The union of ``ResourceLock.waits_for(pid)`` over the resources
    ``pid`` waits for -- how ``intra_successors`` derived its answer before
    the controller indexed it."""
    execution = controller.executions.get(pid.transaction)
    agent = controller.agents.get(pid.transaction)
    if execution is not None and execution.spec.home_process == pid:
        waiting = set(execution.waiting_local)
    elif agent is not None and agent.pid == pid and agent.inbound is not None:
        waiting = set(agent.inbound.remaining)
    else:
        waiting = set()
    result: set[ProcessId] = set()
    for resource in waiting:
        lock = controller.locks.get(resource)
        if lock is not None:
            result |= lock.waits_for(pid)
    return result


def rebuilt_inter_edges(controller: Controller, pid: ProcessId) -> list[EdgeRef]:
    """``pid``'s outgoing inter edges rebuilt from ``waiting_remote``."""
    execution = controller.executions.get(pid.transaction)
    if execution is None or execution.spec.home_process != pid or execution.finished:
        return []
    return [
        EdgeRef(origin=pid, target=wait.edge.target, serial=wait.edge.serial)
        for _, wait in sorted(execution.waiting_remote.items())
    ]


def local_processes(controller: Controller) -> set[ProcessId]:
    processes = {e.spec.home_process for e in controller.executions.values()}
    processes |= {agent.pid for agent in controller.agents.values()}
    for lock in controller.locks.values():
        processes |= set(lock.holders)
        processes |= {waiter.process for waiter in lock.waiters}
    return processes


def reference_formation_times(system: DdbSystem) -> dict[ProcessId, float]:
    """Formation times by the rule the oracle used before its closing-edge
    check: on every added edge, if a colour-filtered walk finds the source
    on a dark cycle, stamp the source's dark SCC."""
    formed: dict[ProcessId, float] = {}

    def on_edge_added(event: TraceEvent) -> None:
        source = event.details["source"]
        if on_dark_cycle_by_colour(system.oracle, source):
            for component in dark_components(dark_edges_by_colour(system.oracle)):
                if source in component:
                    for member in component:
                        formed.setdefault(member, event.time)

    system.transport.tracer.subscribe(on_edge_added, categories=(categories.DDB_EDGE_ADDED,))
    return formed


def hot_system(seed: int, resolve: int) -> DdbSystem:
    spec = WorkloadSpec(
        family="ddb-hot",
        n=4,
        seed=seed,
        duration=150.0,
        params=make_params(resources=12, load=3, window=15, resolve=resolve),
    )
    run = provision_workload(
        get_variant("ddb"), spec, delay_model=ExponentialDelay(mean=1.0)
    )
    system: DdbSystem = run.system
    return system


def wound_wait_system(seed: int) -> DdbSystem:
    system = DdbSystem(
        n_sites=4,
        resources=uniform_resources(12, 4),
        seed=seed,
        delay_model=ExponentialDelay(mean=1.0),
        resolution=AbortLowestTransactionInCycle(),
        prevention=WoundWait(),
        strict=False,
    )
    TransactionWorkload(
        system,
        WorkloadParams(
            n_transactions=36,
            remote_probability=0.9,
            hotspot_probability=0.8,
            arrival_window=15.0,
            restart_aborted=True,
            restart_horizon=150.0,
        ),
    ).start()
    return system


CONFIGS = {
    "detect-only": lambda seed: hot_system(seed, resolve=0),
    "victim-restart": lambda seed: hot_system(seed, resolve=1),
    "wound-wait": wound_wait_system,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_indexes_match_their_sources_after_every_event(config: str, seed: int) -> None:
    system = CONFIGS[config](seed)
    formed = reference_formation_times(system)
    events = 0
    while system.simulator.step():
        events += 1
        for controller in system.controllers.values():
            for pid in local_processes(controller):
                assert controller.intra_successors(pid) == lock_derived_successors(
                    controller, pid
                ), (events, pid)
                assert controller.outgoing_inter_edges(pid) == rebuilt_inter_edges(
                    controller, pid
                ), (events, pid)
        assert system.deadlock_formed_at == formed, events
    assert events > 100
    if config != "wound-wait":
        # Wound-wait wounds most cycles before they close; the other two
        # must form some for the formation-time comparison to mean anything.
        assert system.deadlock_formed_at
