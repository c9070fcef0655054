"""Tests for the WFGD computation lifted to the DDB model."""

from __future__ import annotations

import pytest

from repro._ids import ProcessId, ResourceId, SiteId, TransactionId
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, acquire

from tests.ddb.helpers import X, cross_deadlock, ring_deadlock, spec, two_site_system


def pid(tid: int, site: int) -> ProcessId:
    return ProcessId(transaction=TransactionId(tid), site=SiteId(site))


def all_wfgd_paths(system: DdbSystem) -> dict[ProcessId, set]:
    merged: dict[ProcessId, set] = {}
    for controller in system.controllers.values():
        for process, paths in controller.wfgd.paths.items():
            merged[process] = set(paths)
    return merged


class TestDdbWfgdOnCycles:
    def test_cross_deadlock_processes_learn_cycle_edges(self) -> None:
        system = two_site_system(wfgd_on_declare=True)
        cross_deadlock(system)
        system.run_to_quiescence()
        system.assert_soundness()
        deadlocked = system.oracle.processes_on_dark_cycles()
        assert deadlocked
        for process in deadlocked:
            controller = system.controllers[process.site]
            expected = system.oracle.permanent_black_edges_from(process)
            assert controller.wfgd.paths_for(process) == expected, process

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_ring_every_process_informed_exactly(self, n: int) -> None:
        system = ring_deadlock(n, wfgd_on_declare=True)
        system.run_to_quiescence()
        system.assert_soundness()
        deadlocked = system.oracle.processes_on_dark_cycles()
        assert len(deadlocked) == 2 * n  # home + agent per transaction
        for process in deadlocked:
            controller = system.controllers[process.site]
            expected = system.oracle.permanent_black_edges_from(process)
            assert controller.wfgd.paths_for(process) == expected, process
        assert system.counts["ddb.wfgd.sent"] > 0

    def test_wfgd_disabled_by_default(self) -> None:
        system = two_site_system()
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.counts["ddb.wfgd.sent"] == 0
        assert all_wfgd_paths(system) == {}


class TestDdbWfgdTails:
    def test_local_waiter_into_cycle_is_informed(self) -> None:
        # T3 at S0 waits for r0 held by T1's home process, which is on the
        # cross-site cycle: T3's process is deadlocked but never on a
        # cycle, so only WFGD can tell it.
        system = two_site_system(wfgd_on_declare=True)
        cross_deadlock(system)
        system.begin(spec(3, 0, acquire(("r0", X))), at=5.0)
        system.run_to_quiescence()
        system.assert_soundness()
        tail = pid(3, 0)
        controller = system.controller(0)
        expected = system.oracle.permanent_black_edges_from(tail)
        assert expected  # genuinely permanently blocked
        assert controller.wfgd.paths_for(tail) == expected
        declared = {d.process for d in system.declarations}
        assert tail not in declared  # informed, not declaring

    def test_remote_waiter_into_cycle_is_informed(self) -> None:
        # T3 homed at S1 remote-hops for r0 (held inside the cycle at S0):
        # the WFGD info must cross controllers to reach T3's home process.
        system = two_site_system(wfgd_on_declare=True)
        cross_deadlock(system)
        system.begin(spec(3, 1, acquire(("r0", X))), at=5.0)
        system.run_to_quiescence()
        system.assert_soundness()
        home = pid(3, 1)
        agent = pid(3, 0)
        expected_home = system.oracle.permanent_black_edges_from(home)
        expected_agent = system.oracle.permanent_black_edges_from(agent)
        assert expected_home and expected_agent
        assert system.controller(1).wfgd.paths_for(home) == expected_home
        assert system.controller(0).wfgd.paths_for(agent) == expected_agent

    def test_late_attachment_is_informed(self) -> None:
        # The tail arrives long after detection and WFGD completed; the
        # persistent-send rule must still inform it.
        system = two_site_system(wfgd_on_declare=True)
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.declarations
        system.begin(spec(3, 0, acquire(("r0", X))), at=system.now + 50.0)
        system.run_to_quiescence()
        tail = pid(3, 0)
        expected = system.oracle.permanent_black_edges_from(tail)
        assert expected
        assert system.controller(0).wfgd.paths_for(tail) == expected
