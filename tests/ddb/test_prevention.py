"""Tests for the wait-die / wound-wait prevention schemes.

The defining property: with a prevention scheme active, **no dark cycle
ever forms** -- the wait-for graph stays acyclic at every instant, so the
paper's detection machinery has nothing to find.  The cost shows up as
prevention aborts of transactions that were never deadlocked.
"""

from __future__ import annotations

import pytest

from repro._ids import TransactionId
from repro.ddb.initiation import DdbManualInitiation
from repro.ddb.prevention import Decision, WaitDie, WoundWait
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import TransactionExecution
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

from tests.ddb.helpers import cross_deadlock, two_site_system


def prevention_system(policy, **kwargs) -> DdbSystem:
    return two_site_system(
        prevention=policy, initiation=DdbManualInitiation(), **kwargs
    )


def restart_callback(system: DdbSystem):
    def callback(execution: TransactionExecution, aborted: bool) -> None:
        if aborted:
            system.restart(execution.spec.tid, delay=4.0 + 3.0 * int(execution.spec.tid))

    return callback


def no_dark_cycle_watcher(system: DdbSystem) -> list:
    """Record any instant at which a dark cycle exists (must stay empty)."""
    sightings: list[float] = []

    def watch(event) -> None:
        if event.category == "ddb.edge.added":
            if system.oracle.is_on_dark_cycle(event["source"]):
                sightings.append(event.time)

    system.simulator.tracer.subscribe(watch)
    return sightings


class TestPolicyDecisions:
    def test_wait_die_matrix(self) -> None:
        from repro._ids import ProcessId, SiteId

        policy = WaitDie()
        requester = ProcessId(TransactionId(1), SiteId(0))
        holder = ProcessId(TransactionId(2), SiteId(0))
        # Older requester (ts 1) vs younger holder (ts 5): wait.
        assert policy.on_conflict(requester, 1, [(holder, 5)]) == (Decision.WAIT, [])
        # Younger requester (ts 5) vs older holder (ts 1): die.
        assert policy.on_conflict(requester, 5, [(holder, 1)]) == (Decision.DIE, [])

    def test_wound_wait_matrix(self) -> None:
        from repro._ids import ProcessId, SiteId

        policy = WoundWait()
        requester = ProcessId(TransactionId(1), SiteId(0))
        holder = ProcessId(TransactionId(2), SiteId(0))
        # Older requester wounds the younger holder and waits.
        decision, wounded = policy.on_conflict(requester, 1, [(holder, 5)])
        assert decision is Decision.WAIT
        assert wounded == [TransactionId(2)]
        # Younger requester simply waits.
        assert policy.on_conflict(requester, 5, [(holder, 1)]) == (Decision.WAIT, [])


@pytest.mark.parametrize("policy_factory", [WaitDie, WoundWait])
class TestPreventionOnTheCanonicalDeadlock:
    def test_no_dark_cycle_ever_forms(self, policy_factory) -> None:
        system = prevention_system(policy_factory())
        sightings = no_dark_cycle_watcher(system)
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=300_000)
        assert sightings == []
        system.assert_no_deadlock_remains()

    def test_everything_commits_without_any_detection(self, policy_factory) -> None:
        system = prevention_system(policy_factory())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=300_000)
        assert all(r.commits == 1 for r in system.transactions.values())
        # Prevention needed no probes at all.
        assert system.probes_sent == 0
        assert system.declarations == []

    def test_prevention_aborts_are_counted(self, policy_factory) -> None:
        system = prevention_system(policy_factory())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=300_000)
        deaths = system.counts["ddb.prevention.deaths"]
        wounds = system.counts["ddb.prevention.wounds"]
        assert deaths + wounds >= 1  # somebody paid the prevention tax


class TestSchemeCharacter:
    def test_wait_die_victim_is_the_younger_requester(self) -> None:
        # T1 admitted first (older).  T2's request against T1's lock dies.
        system = prevention_system(WaitDie())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)  # T1 admitted before T2 => T1 older
        system.run_to_quiescence(max_events=300_000)
        assert system.transactions[TransactionId(2)].aborts >= 1
        assert system.transactions[TransactionId(1)].aborts == 0

    def test_wound_wait_victim_is_the_younger_holder(self) -> None:
        system = prevention_system(WoundWait())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=300_000)
        # The older T1 wounds T2 (the younger holder of r1).
        assert system.transactions[TransactionId(2)].aborts >= 1
        assert system.transactions[TransactionId(1)].aborts == 0

    def test_timestamps_persist_across_restarts(self) -> None:
        system = prevention_system(WaitDie())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        before = {tid: r.timestamp for tid, r in system.transactions.items()}
        system.run_to_quiescence(max_events=300_000)
        after = {tid: r.timestamp for tid, r in system.transactions.items()}
        assert before == after


@pytest.mark.parametrize("policy_factory", [WaitDie, WoundWait])
class TestPreventionUnderRandomWorkloads:
    def test_no_permanent_deadlock_and_live(self, policy_factory) -> None:
        # Under message delays a cycle may exist TRANSIENTLY (the wound or
        # death that breaks it is already in flight); the guarantee is
        # that no cycle persists and the system stays live -- with zero
        # detection traffic.
        system = DdbSystem(
            n_sites=3,
            resources=6,
            seed=11,
            prevention=policy_factory(),
            initiation=DdbManualInitiation(),
        )
        workload = TransactionWorkload(
            system,
            WorkloadParams(
                n_transactions=10,
                remote_probability=1.0,
                read_ratio=0.2,
                hotspot_probability=0.5,
                hotspot_size=2,
                mean_think=0.8,
                arrival_window=6.0,
                restart_horizon=3000.0,
            ),
        )
        workload.start()
        system.run_to_quiescence(max_events=2_000_000)
        system.assert_no_deadlock_remains()
        assert workload.stats.commits == 10
        assert system.probes_sent == 0
        assert system.declarations == []

    def test_local_conflicts_never_even_transiently_cycle(self, policy_factory) -> None:
        # With all conflicts at ONE site, wounds/deaths land in zero time
        # (plus one scheduler step), so cycles cannot even form.
        from repro._ids import ResourceId, SiteId

        resources = {ResourceId("a"): SiteId(0), ResourceId("b"): SiteId(0)}
        system = DdbSystem(
            n_sites=1,
            resources=resources,
            seed=3,
            prevention=policy_factory(),
            initiation=DdbManualInitiation(),
        )
        sightings = no_dark_cycle_watcher(system)
        system.finished_callback = restart_callback(system)
        from repro.ddb.transaction import Think, acquire
        from repro.ddb.locks import LockMode
        from tests.ddb.helpers import spec

        X = LockMode.EXCLUSIVE
        system.begin(spec(1, 0, acquire(("a", X)), Think(1.0), acquire(("b", X))), at=0.0)
        system.begin(spec(2, 0, acquire(("b", X)), Think(1.0), acquire(("a", X))), at=0.1)
        system.run_to_quiescence(max_events=300_000)
        assert sightings == []
        assert all(r.commits == 1 for r in system.transactions.values())
