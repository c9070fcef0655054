"""Tests for victim-selection policies."""

from __future__ import annotations

import pytest

from repro._ids import TransactionId
from repro.ddb.resolution import (
    AbortAboutTransaction,
    AbortLowestTransactionInCycle,
    NoResolution,
)
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import TransactionExecution

from tests.ddb.helpers import cross_deadlock, ring_deadlock, total_aborts, two_site_system


def restart_callback(system: DdbSystem):
    def callback(execution: TransactionExecution, aborted: bool) -> None:
        if aborted:
            system.restart(execution.spec.tid, delay=3.0 + 4.0 * int(execution.spec.tid))

    return callback


class TestAbortLowest:
    def test_resolves_cross_deadlock(self) -> None:
        system = two_site_system(resolution=AbortLowestTransactionInCycle())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=200_000)
        system.assert_no_deadlock_remains()
        assert all(r.commits == 1 for r in system.transactions.values())
        assert system.soundness_violations == []

    def test_concurrent_detectors_agree_on_the_victim(self) -> None:
        # Both controllers declare; both demand the SAME victim (min tid),
        # so exactly one transaction is ever aborted.
        system = two_site_system(resolution=AbortLowestTransactionInCycle())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=200_000)
        aborted = {tid for tid, r in system.transactions.items() if r.aborts > 0}
        assert aborted == {TransactionId(1)}
        assert total_aborts(system) == 1

    def test_about_policy_may_abort_both(self) -> None:
        # Baseline for contrast: with per-declarer victims, both
        # transactions get aborted in the same episode.
        system = two_site_system(resolution=AbortAboutTransaction())
        system.finished_callback = restart_callback(system)
        cross_deadlock(system)
        system.run_to_quiescence(max_events=200_000)
        assert total_aborts(system) == 2

    @pytest.mark.parametrize("n", [3, 5])
    def test_ring_resolves_with_fewer_aborts(self, n: int) -> None:
        lowest = ring_deadlock(n, resolution=AbortLowestTransactionInCycle())
        lowest.finished_callback = restart_callback(lowest)
        lowest.run_to_quiescence(max_events=400_000)
        lowest.assert_no_deadlock_remains()
        assert all(r.commits == 1 for r in lowest.transactions.values())

        about = ring_deadlock(n, resolution=AbortAboutTransaction())
        about.finished_callback = restart_callback(about)
        about.run_to_quiescence(max_events=400_000)
        about.assert_no_deadlock_remains()

        assert total_aborts(lowest) <= total_aborts(about)

    def test_no_resolution_is_truly_inert(self) -> None:
        system = two_site_system(resolution=NoResolution())
        cross_deadlock(system)
        system.run_to_quiescence(max_events=100_000)
        assert total_aborts(system) == 0
        assert system.oracle.processes_on_dark_cycles()
