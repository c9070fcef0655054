"""Tests for the OR/communication-model detector."""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.errors import ProtocolError
from repro.ormodel.system import OrSystem, OrWaitGraph
from repro.sim.network import ExponentialDelay


def v(i: int) -> VertexId:
    return VertexId(i)


class TestOracleCriterion:
    def test_active_vertex_not_deadlocked(self) -> None:
        graph = OrWaitGraph()
        assert not graph.is_deadlocked(v(0))

    def test_cycle_of_blocked_is_deadlocked(self) -> None:
        graph = OrWaitGraph()
        graph.set_dependents(v(0), {v(1)})
        graph.set_dependents(v(1), {v(0)})
        assert graph.is_deadlocked(v(0))
        assert graph.deadlocked_vertices() == {v(0), v(1)}

    def test_reachable_active_vertex_saves_everyone(self) -> None:
        # 0 waits any{1, 2}; 1 waits any{0}; 2 is active.
        graph = OrWaitGraph()
        graph.set_dependents(v(0), {v(1), v(2)})
        graph.set_dependents(v(1), {v(0)})
        assert not graph.is_deadlocked(v(0))
        assert not graph.is_deadlocked(v(1))  # 1 -> 0 -> 2 (active)

    def test_blocked_chain_into_active_not_deadlocked(self) -> None:
        graph = OrWaitGraph()
        graph.set_dependents(v(0), {v(1)})
        graph.set_dependents(v(1), {v(2)})
        assert not graph.is_deadlocked(v(0))

    def test_closure(self) -> None:
        graph = OrWaitGraph()
        graph.set_dependents(v(0), {v(1)})
        graph.set_dependents(v(1), {v(2)})
        assert graph.closure(v(0)) == {v(1), v(2)}


class TestUnderlyingComputation:
    def test_any_semantics_first_grant_unblocks(self) -> None:
        system = OrSystem(n_vertices=3, auto_initiate=False)
        system.schedule_request(0.0, 0, [1, 2])
        system.run_to_quiescence()
        assert system.vertex(0).active
        assert system.counts["or.grants.stale"] >= 1

    def test_blocked_vertex_defers_grants(self) -> None:
        # 1 blocked on 2; 0 requests 1; 1 grants only after unblocking.
        system = OrSystem(n_vertices=3, auto_initiate=False, service_delay=2.0)
        system.schedule_request(0.0, 1, [2])
        system.schedule_request(0.1, 0, [1])
        system.run_to_quiescence()
        assert system.vertex(0).active
        unblock_times = {
            event["vertex"]: event.time
            for event in system.simulator.tracer.events("or.unblocked")
        }
        assert unblock_times[v(1)] < unblock_times[v(0)]

    def test_double_block_rejected(self) -> None:
        system = OrSystem(n_vertices=3, auto_initiate=False)
        system.vertex(0).request_any([v(1)])
        with pytest.raises(ProtocolError):
            system.vertex(0).request_any([v(2)])

    def test_self_wait_rejected(self) -> None:
        system = OrSystem(n_vertices=2)
        with pytest.raises(ProtocolError):
            system.vertex(0).request_any([v(0)])

    def test_manual_grant_requires_active(self) -> None:
        system = OrSystem(n_vertices=3, auto_grant=False, auto_initiate=False)
        system.schedule_request(0.0, 1, [2])
        system.schedule_request(0.1, 0, [1])
        system.run_to_quiescence()
        with pytest.raises(ProtocolError):
            system.vertex(1).grant_to(v(0))  # blocked
        with pytest.raises(ProtocolError):
            system.vertex(2).grant_to(v(9))  # no such request


class TestDetection:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_or_cycle_detected(self, k: int) -> None:
        system = OrSystem(n_vertices=k)
        for i in range(k):
            system.schedule_request(0.5 * i, i, [(i + 1) % k])
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()
        system.assert_completeness()

    def test_or_alternative_prevents_deadlock_and_detection(self) -> None:
        # The defining any/all difference: the same topology deadlocks in
        # the AND model but not here, because 0 has an active alternative.
        system = OrSystem(n_vertices=4)
        system.schedule_request(0.0, 0, [1, 3])
        system.schedule_request(0.5, 1, [2])
        system.schedule_request(1.0, 2, [0])
        system.run_to_quiescence()
        assert system.declarations == []
        assert all(vertex.active for vertex in system.vertices.values())

    def test_fan_knot_detected(self) -> None:
        # 0 waits any{1,2}; both 1 and 2 wait any{0}: nobody can move.
        system = OrSystem(n_vertices=3)
        system.schedule_request(0.0, 1, [0])
        system.schedule_request(0.2, 2, [0])
        system.schedule_request(0.4, 0, [1, 2])
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()
        system.assert_completeness()

    def test_blocked_tail_into_or_cycle(self) -> None:
        # 3 waits any{0} where 0,1,2 form a deadlocked OR-cycle: 3 is
        # deadlocked too (its only hope is inside the dead set) and must
        # have a declarer in its closure.
        system = OrSystem(n_vertices=4)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.3, 1, [2])
        system.schedule_request(0.6, 2, [0])
        system.schedule_request(3.0, 3, [0])
        system.run_to_quiescence()
        system.assert_soundness()
        system.assert_completeness()
        assert system.oracle.is_deadlocked(v(3))

    def test_active_vertex_initiation_is_noop(self) -> None:
        system = OrSystem(n_vertices=2, auto_initiate=False)
        assert system.vertex(0).initiate_detection() is None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_sound_and_complete(self, seed: int) -> None:
        import random

        system = OrSystem(
            n_vertices=8,
            seed=seed,
            delay_model=ExponentialDelay(mean=1.0),
            service_delay=0.5,
            strict=False,
        )
        rng = random.Random(seed)

        def act(i: int) -> None:
            vertex = system.vertex(i)
            if vertex.blocked:
                return
            others = [j for j in range(8) if j != i]
            targets = rng.sample(others, rng.randint(1, 2))
            system.request_any(i, targets)

        for step in range(60):
            system.simulator.schedule_at(
                0.5 * step + rng.random(), lambda i=rng.randrange(8): act(i)
            )
        system.run_to_quiescence(max_events=400_000)
        system.assert_soundness()
        system.assert_completeness()
        # Stability: declared vertices never unblocked afterwards.
        for declaration in system.declarations:
            assert system.vertices[declaration.vertex].blocked

    def test_query_traffic_bounded(self) -> None:
        system = OrSystem(n_vertices=4)
        for i in range(4):
            system.schedule_request(0.5 * i, i, [(i + 1) % 4])
        system.run_to_quiescence()
        # Per computation: at most one engaging query per edge plus one
        # non-engaging echo per edge => <= 2 * E * computations.
        queries = system.counts["or.queries.sent"]
        computations = system.counts["or.computations.initiated"]
        assert queries <= 2 * 4 * computations
