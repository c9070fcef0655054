"""Targeted tests for less-travelled branches across the library."""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.basic.initiation import ManualInitiation
from repro.basic.messages import Probe
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError
from repro.ormodel.system import OrSystem
from repro.workloads.scenarios import schedule_cycle


def v(i: int) -> VertexId:
    return VertexId(i)


class TestStrictMode:
    def test_strict_system_raises_on_unsound_declaration(self) -> None:
        # The scripted non-FIFO phantom from the ablation suite, but with
        # strict=True: the system must raise at the declaration instant.
        system = BasicSystem(
            n_vertices=4,
            fifo=False,
            auto_reply=False,
            initiation=ManualInitiation(),
            strict=True,
        )

        def override(sender, destination, message):
            if isinstance(message, Probe) and sender == v(1) and destination == v(2):
                return 40.0
            return 1.0

        system.network.delay_override = override
        sim = system.simulator
        sim.schedule_at(0.0, lambda: system.vertex(0).request([v(1)]))
        sim.schedule_at(0.0, lambda: system.vertex(1).request([v(2)]))
        sim.schedule_at(2.0, system.vertex(0).initiate_probe_computation)
        sim.schedule_at(4.0, lambda: system.vertex(2).reply_to(v(1)))
        sim.schedule_at(6.0, lambda: system.vertex(1).reply_to(v(0)))
        sim.schedule_at(8.0, lambda: system.vertex(0).request([v(3)]))
        sim.schedule_at(9.0, lambda: system.vertex(2).request([v(0)]))
        sim.schedule_at(11.0, lambda: system.vertex(1).request([v(2)]))
        with pytest.raises(AssertionError, match="QRP2"):
            system.run_to_quiescence()


class TestTraceDisabledModes:
    def test_basic_system_works_without_trace(self) -> None:
        system = BasicSystem(n_vertices=3, trace=False)
        schedule_cycle(system, [0, 1, 2])
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()
        system.assert_completeness()
        # Probe accounting still collected; trace log empty.
        assert system.probes_sent > 0
        assert len(system.simulator.tracer) == 0
        # Formation tracking (via subscribers) still works when disabled.
        assert system.deadlock_formed_at

    def test_ddb_system_works_without_trace(self) -> None:
        from tests.ddb.helpers import cross_deadlock, two_site_system

        system = two_site_system(trace=False)
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()

    def test_or_system_works_without_trace(self) -> None:
        system = OrSystem(n_vertices=3, trace=False)
        for i in range(3):
            system.schedule_request(0.5 * i, i, [(i + 1) % 3])
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()


class TestValidation:
    def test_basic_system_needs_a_vertex(self) -> None:
        with pytest.raises(ConfigurationError):
            BasicSystem(n_vertices=0)

    def test_or_system_needs_a_vertex(self) -> None:
        with pytest.raises(ConfigurationError):
            OrSystem(n_vertices=0)


class TestServiceRescheduling:
    def test_service_fire_while_reblocked_defers(self) -> None:
        # Vertex 1 receives a request, schedules service, then blocks
        # before the service fires: G3 forbids the reply; it must go out
        # only after vertex 1 unblocks again.
        system = BasicSystem(n_vertices=3, service_delay=2.0)
        system.schedule_request(0.0, 0, [1])       # service would fire ~3.0
        system.schedule_request(2.5, 1, [2])       # 1 blocks before that
        system.run(until=4.0)
        assert v(0) in system.vertex(1).pending_in  # reply deferred
        system.run_to_quiescence()
        assert system.vertex(0).active              # ... and delivered later

    def test_unblocked_vertex_services_backlog(self) -> None:
        system = BasicSystem(n_vertices=4, service_delay=1.0)
        system.schedule_request(0.0, 1, [2])
        system.schedule_request(0.2, 0, [1])
        system.schedule_request(0.4, 3, [1])
        system.run_to_quiescence()
        for i in range(4):
            assert system.vertex(i).active
        assert len(system.oracle) == 0


class TestDdbRestartValidation:
    def test_restart_unknown_transaction_raises(self) -> None:
        from tests.ddb.helpers import two_site_system
        from repro._ids import TransactionId

        system = two_site_system()
        with pytest.raises(KeyError):
            system.restart(TransactionId(99))
