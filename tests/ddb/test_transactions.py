"""Integration tests for transaction execution: local/remote acquisition,
commit, lock release, think times -- the non-deadlocking paths."""

from __future__ import annotations

import pytest

from repro._ids import ProcessId, ResourceId, SiteId, TransactionId
from repro.ddb.system import DdbSystem, uniform_resources
from repro.ddb.transaction import Think, TransactionStatus, acquire
from repro.errors import ConfigurationError, ProtocolError

from tests.ddb.helpers import S, X, spec, two_site_system


class TestLocalExecution:
    def test_local_only_transaction_commits(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X)), Think(2.0)), at=0.0)
        system.run_to_quiescence()
        record = system.transactions[TransactionId(1)]
        assert record.commits == 1
        assert record.committed_at == pytest.approx(2.0)

    def test_empty_transaction_commits_immediately(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0), at=0.0)
        system.run_to_quiescence()
        assert system.transactions[TransactionId(1)].commits == 1

    def test_locks_released_at_commit(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X)), Think(1.0)), at=0.0)
        system.begin(spec(2, 0, acquire(("r0", X))), at=0.1)
        system.run_to_quiescence()
        # T2 waited for T1's commit, then got the lock and committed too.
        assert system.transactions[TransactionId(2)].commits == 1
        assert system.transactions[TransactionId(2)].committed_at >= 1.0

    def test_shared_locks_do_not_block(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", S)), Think(5.0)), at=0.0)
        system.begin(spec(2, 0, acquire(("r0", S))), at=0.1)
        system.run(until=1.0)
        assert system.transactions[TransactionId(2)].commits == 1

    def test_no_edges_left_after_all_commits(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X)), Think(1.0)), at=0.0)
        system.begin(spec(2, 0, acquire(("r0", X))), at=0.1)
        system.run_to_quiescence()
        assert len(system.oracle) == 0


class TestRemoteExecution:
    def test_remote_acquire_commits(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r1", X))), at=0.0)
        system.run_to_quiescence()
        record = system.transactions[TransactionId(1)]
        assert record.commits == 1
        # Round trip: request to S1 (1.0) + grant back (1.0).
        assert record.committed_at == pytest.approx(2.0)

    def test_remote_agent_releases_on_commit(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r1", X)), Think(1.0)), at=0.0)
        system.begin(spec(2, 1, acquire(("r1", X))), at=0.5)
        system.run_to_quiescence()
        assert system.transactions[TransactionId(2)].commits == 1
        assert len(system.oracle) == 0
        # Agent state cleaned up.
        assert system.controller(1).agents == {}

    def test_mixed_local_and_remote_acquire(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X), ("r1", X)), Think(1.0)), at=0.0)
        system.run_to_quiescence()
        assert system.transactions[TransactionId(1)].commits == 1

    def test_remote_wait_blocks_home(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 1, acquire(("r1", X)), Think(10.0)), at=0.0)
        system.begin(spec(2, 0, acquire(("r1", X))), at=1.0)
        system.run(until=5.0)
        execution = system.controller(0).executions[TransactionId(2)]
        assert execution.status is TransactionStatus.WAITING
        system.run_to_quiescence()
        assert system.transactions[TransactionId(2)].commits == 1

    def test_sequential_remote_ops_to_same_site(self) -> None:
        resources = {
            ResourceId("a"): SiteId(1),
            ResourceId("b"): SiteId(1),
        }
        system = DdbSystem(n_sites=2, resources=resources)
        system.begin(
            spec(1, 0, acquire(("a", X)), Think(0.5), acquire(("b", X))), at=0.0
        )
        system.run_to_quiescence()
        assert system.transactions[TransactionId(1)].commits == 1
        assert system.controller(1).agents == {}


class TestValidation:
    def test_unknown_resource_rejected(self) -> None:
        system = two_site_system()
        with pytest.raises(ConfigurationError):
            system.begin(spec(1, 0, acquire(("nope", X))))

    def test_duplicate_tid_rejected(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0), at=0.0)
        with pytest.raises(ProtocolError):
            system.begin(spec(1, 0))

    def test_wrong_home_rejected(self) -> None:
        system = two_site_system()
        with pytest.raises(ProtocolError):
            system.controller(1).begin(spec(1, 0), incarnation=1)

    def test_invalid_resource_home_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            DdbSystem(n_sites=2, resources={ResourceId("r"): SiteId(9)})

    def test_zero_sites_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            DdbSystem(n_sites=0, resources=4)

    def test_uniform_resources_round_robin(self) -> None:
        catalogue = uniform_resources(5, 2)
        assert catalogue[ResourceId("r0")] == SiteId(0)
        assert catalogue[ResourceId("r1")] == SiteId(1)
        assert catalogue[ResourceId("r4")] == SiteId(0)


class TestResponseTimes:
    def test_response_time_histogram_recorded(self) -> None:
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r0", X)), Think(3.0)), at=2.0)
        system.run_to_quiescence()
        record = system.transactions[TransactionId(1)]
        assert record.commits == 1
        assert record.first_begin is not None and record.committed_at is not None
        assert record.committed_at - record.first_begin == pytest.approx(3.0)
