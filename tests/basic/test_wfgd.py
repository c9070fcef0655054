"""Tests for the WFGD computation (section 5)."""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.basic.system import BasicSystem

from tests.conftest import make_cycle_system


def v(i: int) -> VertexId:
    return VertexId(i)


def quiesce(system: BasicSystem) -> None:
    system.run_to_quiescence()
    system.assert_soundness()


class TestWfgdOnCycle:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_every_cycle_member_learns_all_cycle_edges(self, k: int) -> None:
        system = make_cycle_system(k, wfgd_on_declare=True)
        quiesce(system)
        cycle_edges = {(v(i), v((i + 1) % k)) for i in range(k)}
        for i in range(k):
            vertex = system.vertex(i)
            assert vertex.wfgd.knows_deadlocked
            assert vertex.wfgd.paths == cycle_edges

    def test_wfgd_matches_oracle_ground_truth(self, k: int = 4) -> None:
        system = make_cycle_system(k, wfgd_on_declare=True)
        quiesce(system)
        for i in range(k):
            expected = system.oracle.permanent_black_edges_from(v(i))
            assert system.vertex(i).wfgd.paths == expected

    def test_wfgd_terminates(self) -> None:
        # Termination is implied by quiescence; also check a bounded number
        # of WFGD messages (never the same set twice per channel).
        system = make_cycle_system(5, wfgd_on_declare=True)
        quiesce(system)
        assert system.counts["basic.wfgd.sent"] > 0


class TestWfgdTailVertices:
    def test_tail_vertex_learns_it_is_deadlocked(self) -> None:
        # 3 -> 0 -> 1 -> 2 -> 0: vertex 3 is not on the cycle, never
        # declares (QRP2), but WFGD must inform it (section 4.2).
        system = BasicSystem(n_vertices=4, wfgd_on_declare=True)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [2])
        system.schedule_request(1.0, 3, [0])
        system.schedule_request(1.5, 2, [0])
        quiesce(system)
        tail = system.vertex(3)
        assert not tail.engine.deadlocked  # never declared via A1
        assert tail.wfgd.knows_deadlocked  # but informed via WFGD
        assert (v(3), v(0)) in tail.wfgd.paths
        assert tail.wfgd.paths == system.oracle.permanent_black_edges_from(v(3))

    def test_chain_of_tails_all_informed(self) -> None:
        # 5 -> 4 -> 3 -> cycle(0,1,2).
        system = BasicSystem(n_vertices=6, wfgd_on_declare=True)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.2, 1, [2])
        system.schedule_request(0.4, 3, [0])
        system.schedule_request(0.6, 4, [3])
        system.schedule_request(0.8, 5, [4])
        system.schedule_request(1.0, 2, [0])
        quiesce(system)
        for i in range(6):
            assert system.vertex(i).wfgd.knows_deadlocked or system.vertex(
                i
            ).engine.deadlocked, f"vertex {i} was not informed"
        assert (v(5), v(4)) in system.vertex(5).wfgd.paths
        assert (v(4), v(3)) in system.vertex(5).wfgd.paths

    def test_late_attaching_tail_is_still_informed(self) -> None:
        # The deadlock forms and WFGD completes; only THEN does vertex 3
        # start waiting into the cycle.  The persistent-send rule ("and
        # thereafter sends") must inform it -- a one-shot sweep would not.
        # (Found originally by the hypothesis property test.)
        system = BasicSystem(n_vertices=4, wfgd_on_declare=True)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [0])
        system.run_to_quiescence()
        assert system.vertex(0).deadlocked  # WFGD finished long ago
        system.schedule_request(100.0, 3, [0])
        system.run_to_quiescence()
        tail = system.vertex(3)
        assert tail.wfgd.knows_deadlocked
        assert tail.wfgd.paths == system.oracle.permanent_black_edges_from(v(3))

    def test_unrelated_vertex_learns_nothing(self) -> None:
        system = BasicSystem(n_vertices=4, wfgd_on_declare=True)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [0])
        quiesce(system)
        assert system.vertex(3).wfgd.paths == set()
        assert not system.vertex(3).wfgd.knows_deadlocked


class TestWfgdUnitBehaviour:
    def test_initiator_seeding_is_idempotent(self) -> None:
        from repro.basic.messages import WfgdMessage
        from repro.basic.wfgd import WfgdParticipant

        sent: list[tuple[VertexId, WfgdMessage]] = []
        participant = WfgdParticipant(
            vertex=v(1),
            send=lambda target, message: sent.append((target, message)),
            incoming_black=lambda: {v(0)},
        )
        participant.start_as_initiator()
        participant.start_as_initiator()
        assert len(sent) == 1

    def test_same_message_not_sent_twice(self) -> None:
        from repro.basic.messages import WfgdMessage
        from repro.basic.wfgd import WfgdParticipant

        sent: list[tuple[VertexId, WfgdMessage]] = []
        participant = WfgdParticipant(
            vertex=v(1),
            send=lambda target, message: sent.append((target, message)),
            incoming_black=lambda: {v(0)},
        )
        message = WfgdMessage(edges=frozenset({(v(1), v(2))}))
        participant.on_message(message)
        participant.on_message(message)
        assert len(sent) == 1

    def test_paths_accumulate(self) -> None:
        from repro.basic.messages import WfgdMessage
        from repro.basic.wfgd import WfgdParticipant

        participant = WfgdParticipant(
            vertex=v(1), send=lambda *_: None, incoming_black=lambda: set()
        )
        participant.on_message(WfgdMessage(edges=frozenset({(v(1), v(2))})))
        participant.on_message(WfgdMessage(edges=frozenset({(v(2), v(3))})))
        assert participant.paths == {(v(1), v(2)), (v(2), v(3))}

    def test_reachable_edge_closure(self) -> None:
        from repro.basic.wfgd import reachable_edge_closure

        edges = [(v(0), v(1)), (v(1), v(2)), (v(3), v(4))]
        assert reachable_edge_closure(edges, v(0)) == {(v(0), v(1)), (v(1), v(2))}
        assert reachable_edge_closure(edges, v(3)) == {(v(3), v(4))}
        assert reachable_edge_closure(edges, v(9)) == set()
