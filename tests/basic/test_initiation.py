"""Unit tests for initiation policies (section 4)."""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.basic.initiation import DelayedInitiation, ImmediateInitiation
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError

from tests.conftest import make_cycle_system


def v(i: int) -> VertexId:
    return VertexId(i)


class TestImmediateInitiation:
    def test_one_computation_per_request_batch(self) -> None:
        system = BasicSystem(n_vertices=4, initiation=ImmediateInitiation())
        system.schedule_request(0.0, 0, [1, 2, 3])
        system.run_to_quiescence()
        assert system.metrics.counter_value("basic.computations.initiated") == 1

    def test_each_separate_request_initiates(self) -> None:
        system = BasicSystem(n_vertices=4, service_delay=100.0)
        system.schedule_request(0.0, 0, [1])
        system.schedule_request(1.0, 0, [2])
        system.run(until=50.0)
        assert system.metrics.counter_value("basic.computations.initiated") == 2


class TestDelayedInitiation:
    def test_negative_t_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            DelayedInitiation(timeout=-1.0)

    def test_short_wait_avoids_computation(self) -> None:
        # The edge resolves before T elapses: no computation is initiated.
        system = BasicSystem(
            n_vertices=2, initiation=DelayedInitiation(timeout=10.0), service_delay=0.5
        )
        system.schedule_request(0.0, 0, [1])
        system.run_to_quiescence()
        assert system.metrics.counter_value("basic.computations.initiated") == 0
        assert system.metrics.counter_value("basic.computations.avoided") == 1
        assert system.probes_sent == 0

    def test_persistent_edge_triggers_computation_after_t(self) -> None:
        timeout = 5.0
        system = make_cycle_system(3, initiation=DelayedInitiation(timeout=timeout))
        system.run_to_quiescence()
        assert system.metrics.counter_value("basic.computations.initiated") >= 1
        assert system.declarations
        system.assert_soundness()

    def test_detection_latency_at_least_t(self) -> None:
        # The paper: detection time is at least T.
        timeout = 7.0
        system = make_cycle_system(4, initiation=DelayedInitiation(timeout=timeout))
        system.run_to_quiescence()
        histogram = system.metrics.histogram("basic.detection.latency")
        assert histogram.count >= 1
        assert histogram.quantile(0.0) >= timeout

    def test_t_zero_behaves_like_immediate(self) -> None:
        immediate = make_cycle_system(3, initiation=ImmediateInitiation())
        immediate.run_to_quiescence()
        delayed = make_cycle_system(3, initiation=DelayedInitiation(timeout=0.0))
        delayed.run_to_quiescence()
        assert delayed.declarations
        assert immediate.metrics.counter_value(
            "basic.computations.initiated"
        ) <= delayed.metrics.counter_value("basic.computations.initiated")

    def test_larger_t_initiates_fewer_computations(self) -> None:
        # Churn workload: each chain wave fully resolves within ~7 time
        # units (well before the next wave 20 units later).  T below the
        # edge lifetimes fires often; T above them never fires.
        def run(timeout: float) -> int:
            system = BasicSystem(
                n_vertices=6,
                initiation=DelayedInitiation(timeout=timeout),
                service_delay=0.5,
            )
            for wave in range(10):
                for i in range(5):
                    system.schedule_request(wave * 20.0 + i * 0.1, i, [i + 1])
            system.run_to_quiescence()
            return system.metrics.counter_value("basic.computations.initiated")

        assert run(0.1) > run(10.0)
        assert run(10.0) == 0
