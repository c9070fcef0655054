"""Integration tests for the probe computation: Theorems 1 and 2 end to end.

These tests exercise the full stack -- vertices, FIFO network, probe engine,
initiation policies -- on the canonical scenarios of the paper, and verify
QRP1 (completeness) and QRP2 (soundness) against the global oracle.
"""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.basic.initiation import ManualInitiation
from repro.basic.system import BasicSystem
from repro.sim.network import ExponentialDelay, UniformDelay

from tests.conftest import make_cycle_system


def v(i: int) -> VertexId:
    return VertexId(i)


class TestCycleDetection:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 16, 32])
    def test_k_cycle_detected(self, k: int) -> None:
        system = make_cycle_system(k)
        system.run_to_quiescence()
        assert system.declarations, f"no declaration for {k}-cycle"
        system.assert_soundness()
        system.assert_completeness()

    @pytest.mark.parametrize("seed", range(5))
    def test_cycle_detected_under_random_delays(self, seed: int) -> None:
        system = BasicSystem(
            n_vertices=4, seed=seed, delay_model=ExponentialDelay(mean=2.0)
        )
        for i in range(4):
            system.schedule_request(float(i), i, [(i + 1) % 4])
        system.run_to_quiescence()
        system.assert_soundness()
        system.assert_completeness()
        assert system.declarations

    def test_closing_vertex_always_detects(self) -> None:
        # The vertex whose request closes the cycle initiates while on a
        # dark cycle (section 4.2 rule), so it must declare (Theorem 1).
        system = make_cycle_system(5)
        system.run_to_quiescence()
        declared = {d.vertex for d in system.declarations}
        assert v(4) in declared  # vertex 4 issues the closing request

    def test_cycle_with_tail_detected_tail_not_declared(self) -> None:
        # 0 -> 1 -> 2 -> 0 plus 3 -> 0; 3 is blocked forever but not on the
        # cycle, so it must never *declare* (soundness) -- WFGD informs it.
        system = BasicSystem(n_vertices=4)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [2])
        system.schedule_request(1.0, 3, [0])
        system.schedule_request(1.5, 2, [0])
        system.run_to_quiescence()
        system.assert_soundness()
        declared = {d.vertex for d in system.declarations}
        assert v(3) not in declared
        assert declared & {v(0), v(1), v(2)}

    def test_two_disjoint_cycles_both_detected(self) -> None:
        system = BasicSystem(n_vertices=5)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [0])
        system.schedule_request(0.0, 2, [3])
        system.schedule_request(0.5, 3, [4])
        system.schedule_request(1.0, 4, [2])
        system.run_to_quiescence()
        system.assert_completeness()
        declared = {d.vertex for d in system.declarations}
        assert declared & {v(0), v(1)}
        assert declared & {v(2), v(3), v(4)}

    def test_and_model_cycle_through_multi_wait(self) -> None:
        # 0 waits on {1, 2}; only the branch through 2 cycles back.
        system = BasicSystem(n_vertices=4, service_delay=50.0)
        system.schedule_request(0.0, 0, [1, 2])
        system.schedule_request(1.0, 2, [3])
        system.schedule_request(2.0, 3, [0])
        system.run(until=40.0)
        system.assert_soundness()
        declared = {d.vertex for d in system.declarations}
        assert declared >= {v(3)}


class TestNoFalsePositives:
    def test_acyclic_chain_never_declares(self) -> None:
        system = BasicSystem(n_vertices=5)
        for i in range(4):
            system.schedule_request(float(i), i, [i + 1])
        system.run_to_quiescence()
        assert system.declarations == []
        assert system.vertex(0).active

    def test_near_cycle_that_resolves_never_declares(self) -> None:
        # 0 -> 1 -> 2; 2 replies to 1 before 2's own request would close a
        # cycle.  No dark cycle ever exists; nothing may be declared.
        system = BasicSystem(n_vertices=3, service_delay=0.5)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(0.5, 1, [2])
        system.run_to_quiescence()
        assert system.declarations == []

    @pytest.mark.parametrize("seed", range(10))
    def test_heavy_churn_no_false_positives(self, seed: int) -> None:
        # Vertices repeatedly request and get replies; requests race probes
        # under exponential delays.  QRP2 must hold on every history.
        system = BasicSystem(
            n_vertices=6,
            seed=seed,
            delay_model=UniformDelay(0.1, 3.0),
            service_delay=0.2,
        )
        # A wave of chain requests that all resolve.  A vertex may still be
        # waiting from the previous wave (delays run up to 3.0), so guard
        # against duplicate edges (G1).
        def request_if_free(i: int) -> None:
            vertex = system.vertex(i)
            if v(i + 1) not in vertex.pending_out:
                vertex.request([v(i + 1)])

        for wave in range(5):
            base = wave * 2.0
            for i in range(5):
                system.simulator.schedule_at(
                    base + i * 0.1, lambda i=i: request_if_free(i)
                )
        system.run_to_quiescence(max_events=100_000)
        system.assert_soundness()
        assert system.declarations == []


class TestProbeMechanics:
    def test_probe_raced_with_request_is_meaningful_by_p1(self) -> None:
        # A probe sent on a grey edge arrives after the request (FIFO), so
        # it is meaningful at receipt -- the P1 guarantee.
        system = make_cycle_system(3)
        system.run_to_quiescence()
        meaningful = [
            event
            for event in system.simulator.tracer.events("basic.probe.received")
            if event["meaningful"]
        ]
        assert meaningful

    def test_at_most_one_probe_per_edge_per_computation(self) -> None:
        system = make_cycle_system(6)
        system.run_to_quiescence()
        per_edge: dict[tuple, int] = {}
        for event in system.simulator.tracer.events("basic.probe.sent"):
            key = (event["tag"], event["source"], event["target"])
            per_edge[key] = per_edge.get(key, 0) + 1
        assert per_edge
        assert all(count == 1 for count in per_edge.values())

    def test_probe_count_on_cycle_at_most_n(self) -> None:
        # Section 4.3: at most one probe per edge => on a pure k-cycle each
        # computation sends at most k probes.
        k = 8
        system = make_cycle_system(k)
        system.run_to_quiescence()
        assert system.probes_per_computation
        assert all(count <= k for count in system.probes_per_computation.values())

    def test_manual_initiation_detects_existing_deadlock(self) -> None:
        system = BasicSystem(n_vertices=3, initiation=ManualInitiation())
        for i in range(3):
            system.schedule_request(float(i), i, [(i + 1) % 3])
        system.run_to_quiescence()
        assert system.declarations == []  # nobody initiated
        # Now initiate from vertex 0, which is on a dark (black) cycle.
        system.simulator.schedule(1.0, system.vertex(0).initiate_probe_computation)
        system.run_to_quiescence()
        assert [d.vertex for d in system.declarations] == [v(0)]
        system.assert_soundness()

    def test_manual_initiation_off_cycle_never_declares(self) -> None:
        system = BasicSystem(n_vertices=4, initiation=ManualInitiation())
        for i in range(3):
            system.schedule_request(float(i), i, [(i + 1) % 3])
        system.schedule_request(0.0, 3, [0])  # tail vertex
        system.run_to_quiescence()
        system.simulator.schedule(1.0, system.vertex(3).initiate_probe_computation)
        system.run_to_quiescence()
        assert system.declarations == []

    def test_detection_latency_recorded(self) -> None:
        system = make_cycle_system(3)
        system.run_to_quiescence()
        latencies = system.detection_latencies
        assert len(latencies) >= 1
        assert min(latencies) >= 0.0


class TestRepeatedComputations:
    def test_vertex_initiating_twice_uses_fresh_tags(self) -> None:
        system = BasicSystem(n_vertices=3, initiation=ManualInitiation())
        for i in range(3):
            system.schedule_request(float(i), i, [(i + 1) % 3])
        system.run_to_quiescence()
        system.simulator.schedule(1.0, system.vertex(0).initiate_probe_computation)
        system.simulator.schedule(50.0, system.vertex(0).initiate_probe_computation)
        system.run_to_quiescence()
        tags = {d.tag for d in system.declarations}
        assert len(tags) == 2  # both computations detect, under fresh tags
        system.assert_soundness()
