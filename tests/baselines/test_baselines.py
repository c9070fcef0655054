"""Tests for the baseline detectors (centralized, path-pushing, timeout)."""

from __future__ import annotations

import time

import pytest

from repro._ids import VertexId
from repro.baselines.base import BaselineReport
from repro.baselines.centralized import CentralizedDetector
from repro.baselines.pathpush import PathPushingDetector
from repro.baselines.snapshot import SnapshotDetector
from repro.baselines.timeout import TimeoutDetector
from repro.basic.initiation import ManualInitiation
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError
from repro.live.transport import AsyncioTransport
from repro.workloads.scenarios import schedule_cycle, schedule_ping_pong


def v(i: int) -> VertexId:
    return VertexId(i)


def deadlocked_system(k: int = 3, seed: int = 0) -> BasicSystem:
    system = BasicSystem(n_vertices=k, seed=seed, initiation=ManualInitiation())
    schedule_cycle(system, list(range(k)))
    return system


class TestReport:
    def test_rates(self) -> None:
        report = BaselineReport(name="x")
        assert report.false_positive_rate == 0.0
        from repro.baselines.base import BaselineDetection

        report.detections.append(BaselineDetection(1.0, v(0), genuine=True))
        report.detections.append(BaselineDetection(2.0, v(1), genuine=False))
        assert report.false_positive_rate == 0.5
        assert report.detected_vertices() == {v(0), v(1)}
        assert len(report.true_detections) == 1
        assert len(report.false_detections) == 1


class TestCentralized:
    def test_validation(self) -> None:
        system = deadlocked_system()
        with pytest.raises(ConfigurationError):
            CentralizedDetector(system, period=0.0)
        with pytest.raises(ConfigurationError):
            CentralizedDetector(system, min_delay=3.0, max_delay=1.0)

    def test_detects_real_deadlock(self) -> None:
        system = deadlocked_system()
        detector = CentralizedDetector(system, period=5.0, horizon=40.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.detected_vertices() == {v(0), v(1), v(2)}
        assert all(d.genuine for d in detector.report.detections)

    def test_charges_2n_messages_per_round(self) -> None:
        system = deadlocked_system(k=4)
        detector = CentralizedDetector(system, period=5.0, horizon=21.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.rounds_completed == 4  # t = 5, 10, 15, 20
        assert detector.report.messages == 4 * 2 * 4

    def test_quiet_system_no_detections(self) -> None:
        system = BasicSystem(n_vertices=3, initiation=ManualInitiation())
        detector = CentralizedDetector(system, period=5.0, horizon=20.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.detections == []

    def test_phantoms_on_ping_pong(self) -> None:
        # Inconsistent snapshots manufacture a cycle that never existed;
        # at least one seed in a small range must exhibit it.
        for seed in range(6):
            system = BasicSystem(
                n_vertices=2,
                seed=seed,
                service_delay=0.5,
                initiation=ManualInitiation(),
                strict=False,
            )
            schedule_ping_pong(system, [(0, 1)], repetitions=10)
            detector = CentralizedDetector(
                system, period=7.0, horizon=70.0, min_delay=0.5, max_delay=3.0
            )
            detector.start()
            system.run_to_quiescence(max_events=200_000)
            assert all(not d.genuine for d in detector.report.detections)
            if detector.report.false_detections:
                return
        pytest.fail("no phantom observed over 6 seeds")


class TestPathPushing:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            PathPushingDetector(deadlocked_system(), period=-1.0)

    def test_detects_real_deadlock(self) -> None:
        system = deadlocked_system()
        detector = PathPushingDetector(system, period=4.0, horizon=60.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.detections
        assert all(d.genuine for d in detector.report.detections)

    def test_messages_deduplicated_across_rounds(self) -> None:
        system = deadlocked_system()
        detector = PathPushingDetector(system, period=4.0, horizon=100.0)
        detector.start()
        system.run_to_quiescence()
        # Once the full path set has circulated, no further messages flow,
        # even though rounds continue: message count is bounded.
        assert detector.report.messages <= 3 * 3 * 3

    def test_active_vertex_paths_are_dropped(self) -> None:
        system = BasicSystem(n_vertices=3, initiation=ManualInitiation())
        # A chain that resolves; stored paths must not linger.
        system.schedule_request(0.0, 0, [1])
        detector = PathPushingDetector(system, period=2.0, horizon=30.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.detections == []
        assert all(not paths for paths in detector._paths.values())


class TestTimeout:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            TimeoutDetector(deadlocked_system(), window=0.0)

    def test_detects_real_deadlock(self) -> None:
        system = deadlocked_system()
        detector = TimeoutDetector(system, window=5.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.detected_vertices() == {v(0), v(1), v(2)}
        assert all(d.genuine for d in detector.report.detections)

    def test_long_finite_wait_is_a_phantom(self) -> None:
        # Vertex 0 waits 20 units for a slow server; W=5 declares it.
        system = BasicSystem(
            n_vertices=2, service_delay=20.0, initiation=ManualInitiation()
        )
        detector = TimeoutDetector(system, window=5.0)
        detector.start()
        system.schedule_request(0.0, 0, [1])
        system.run_to_quiescence()
        assert len(detector.report.false_detections) == 1
        assert system.vertex(0).active  # the wait did resolve

    def test_short_wait_not_declared(self) -> None:
        system = BasicSystem(
            n_vertices=2, service_delay=1.0, initiation=ManualInitiation()
        )
        detector = TimeoutDetector(system, window=10.0)
        detector.start()
        system.schedule_request(0.0, 0, [1])
        system.run_to_quiescence()
        assert detector.report.detections == []

    def test_uses_no_messages(self) -> None:
        system = deadlocked_system()
        detector = TimeoutDetector(system, window=5.0)
        detector.start()
        system.run_to_quiescence()
        assert detector.report.messages == 0


class TestPeriodicRounds:
    """The periodic baselines share one round scheduler."""

    PERIODIC = (CentralizedDetector, PathPushingDetector, SnapshotDetector)

    @pytest.mark.parametrize("detector_class", PERIODIC)
    def test_rounds_on_the_simulator_are_due_every_period(self, detector_class) -> None:
        system = deadlocked_system(k=4)
        detector = detector_class(system, period=5.0, horizon=21.0)
        started: list[float] = []
        begin = detector._start_rounds

        def recording(round_, name):
            def round_recorded() -> None:
                started.append(system.now)
                round_()

            begin(round_recorded, name)

        detector._start_rounds = recording
        detector.start()
        system.run_to_quiescence()
        assert started == [5.0, 10.0, 15.0, 20.0]
        assert detector.rounds_started == 4

    @pytest.mark.parametrize("detector_class", PERIODIC)
    def test_a_wall_clock_stall_loses_no_round(self, detector_class) -> None:
        # On the live transport the clock runs on while the loop stalls.
        # A stall of three periods early in the run must still leave
        # horizon / period rounds: the horizon is tested against each
        # round's due time, not against the late clock.
        time_scale = 0.002
        transport = AsyncioTransport(seed=0, time_scale=time_scale, max_wall_seconds=30.0)
        try:
            system = BasicSystem(
                n_vertices=3, seed=0, initiation=ManualInitiation(), transport=transport
            )
            detector = detector_class(system, period=5.0, horizon=30.0)
            detector.start()
            stalled: list[float] = []

            def stall() -> None:
                time.sleep(3 * 5.0 * time_scale)
                stalled.append(transport.now)

            transport.schedule(1.0, stall)
            system.run_to_quiescence()
            assert stalled and stalled[0] > 1.0 + 2 * 5.0
            assert detector.rounds_started == 30.0 / 5.0
        finally:
            transport.close()
