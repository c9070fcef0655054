"""Tests for victim-abort resolution and transaction restart."""

from __future__ import annotations

import pytest

from repro._ids import ResourceId, SiteId, TransactionId
from repro.ddb.resolution import AbortAboutTransaction, NoResolution
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, TransactionExecution, acquire

from tests.ddb.helpers import (
    X,
    cross_deadlock,
    ring_deadlock,
    spec,
    total_aborts,
    two_site_system,
)


def staggered_restart(system: DdbSystem, base: float = 3.0, step: float = 4.0):
    """Restart policy with per-transaction staggered backoff (avoids the
    symmetric-restart livelock)."""

    def callback(execution: TransactionExecution, aborted: bool) -> None:
        if aborted:
            system.restart(execution.spec.tid, delay=base + step * int(execution.spec.tid))

    return callback


class TestVictimAbort:
    def test_deadlock_broken_and_both_commit(self) -> None:
        system = two_site_system(resolution=AbortAboutTransaction())
        system.finished_callback = staggered_restart(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=100_000)
        system.assert_no_deadlock_remains()
        for record in system.transactions.values():
            assert record.commits == 1
        assert total_aborts(system) >= 1
        assert system.soundness_violations == []

    @pytest.mark.parametrize("n", [3, 5])
    def test_ring_deadlock_resolves(self, n: int) -> None:
        system = ring_deadlock(n, resolution=AbortAboutTransaction())
        system.finished_callback = staggered_restart(system)
        system.run_to_quiescence(max_events=300_000)
        system.assert_no_deadlock_remains()
        assert all(r.commits == 1 for r in system.transactions.values())

    def test_no_resolution_leaves_deadlock(self) -> None:
        system = two_site_system(resolution=NoResolution())
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.oracle.processes_on_dark_cycles()
        assert all(r.commits == 0 for r in system.transactions.values())

    def test_aborted_victims_release_all_locks(self) -> None:
        system = two_site_system(resolution=AbortAboutTransaction())
        # No restart: victims stay dead; survivors must still commit.
        cross_deadlock(system)
        system.run_to_quiescence(max_events=100_000)
        system.assert_no_deadlock_remains()
        commits = sum(r.commits for r in system.transactions.values())
        aborts = sum(r.aborts for r in system.transactions.values())
        assert aborts >= 1
        assert commits + aborts >= 2
        # All lock tables drained or held only by still-running work.
        for controller in system.controllers.values():
            for resource_lock in controller.locks.values():
                assert resource_lock.waiters == []

    def test_stale_declaration_classified_not_violation(self) -> None:
        # Both controllers declare concurrently; the second declaration
        # lands after the first victim broke the cycle.
        system = two_site_system(resolution=AbortAboutTransaction())
        system.finished_callback = staggered_restart(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=100_000)
        assert system.soundness_violations == []
        # Exactly the race described: one sound, one stale declaration.
        sound = [d for d in system.declarations if d.on_black_cycle]
        assert sound
        if len(system.declarations) > len(sound):
            assert system.counts["ddb.declarations.stale"] >= 1


class TestRestartLifecycle:
    def test_incarnations_increment(self) -> None:
        system = two_site_system(resolution=AbortAboutTransaction())
        system.finished_callback = staggered_restart(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=100_000)
        aborted = [r for r in system.transactions.values() if r.aborts > 0]
        assert aborted
        for record in aborted:
            assert record.incarnation == record.aborts + record.commits

    def test_stale_messages_ignored_after_restart(self) -> None:
        # The first victim restarts almost immediately (0.5 after its
        # abort), racing the abort's own in-flight messages and any stale
        # probes; the stagger (4.0 per tid) prevents the symmetric-restart
        # livelock while keeping the races.
        system = two_site_system(resolution=AbortAboutTransaction())
        system.finished_callback = staggered_restart(system, base=0.5, step=4.0)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=200_000)
        system.assert_no_deadlock_remains()
        assert system.soundness_violations == []
        # All transactions eventually commit despite tight restarts.
        assert all(r.commits == 1 for r in system.transactions.values())

    def test_manual_abort_of_running_transaction(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X)), Think(10.0)), at=0.0)
        system.run(until=1.0)
        system.controller(0).abort_transaction(TransactionId(1))
        system.run_to_quiescence()
        record = system.transactions[TransactionId(1)]
        assert record.aborts == 1
        assert record.commits == 0
        # The lock was released by the abort.
        assert not system.controller(0).locks[ResourceId("r0")].holders

    def test_abort_of_finished_transaction_is_noop(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X))), at=0.0)
        system.run_to_quiescence()
        system.controller(0).abort_transaction(TransactionId(1))
        record = system.transactions[TransactionId(1)]
        assert record.commits == 1
        assert record.aborts == 0

    def test_abort_with_remote_agent_cleans_remote_state(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r1", X)), Think(50.0)), at=0.0)
        system.run(until=5.0)  # agent at S1 holds r1
        assert system.controller(1).agents
        system.controller(0).abort_transaction(TransactionId(1))
        system.run_to_quiescence()
        assert system.controller(1).agents == {}
        assert not system.controller(1).locks[ResourceId("r1")].holders


class TestThroughputUnderContention:
    def test_contended_workload_all_commit_eventually(self) -> None:
        # Six transactions over two exclusive resources in opposite orders;
        # repeated deadlocks must all resolve and everything commits.
        system = two_site_system(resolution=AbortAboutTransaction(), seed=7)
        backoff = system.simulator.rng.stream("test.backoff")

        def restart(execution: TransactionExecution, aborted: bool) -> None:
            if aborted:
                system.restart(execution.spec.tid, delay=1.0 + 6.0 * backoff.random())

        system.finished_callback = restart
        for i in range(6):
            first, second = ("r0", "r1") if i % 2 == 0 else ("r1", "r0")
            system.begin(
                spec(i + 1, i % 2, acquire((first, X)), Think(0.5), acquire((second, X))),
                at=0.3 * i,
            )
        system.run_to_quiescence(max_events=500_000)
        system.assert_no_deadlock_remains()
        assert system.soundness_violations == []
        assert all(r.commits == 1 for r in system.transactions.values())
