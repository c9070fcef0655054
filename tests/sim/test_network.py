"""Unit tests for the FIFO network: delivery, ordering, delay models."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.network import ExponentialDelay, FixedDelay, Network, UniformDelay
from repro.sim.process import Process
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Ping:
    payload: int


class Recorder(Process):
    """Test process that records (time, sender, message) for every delivery."""

    def __init__(self, pid) -> None:
        super().__init__(pid)
        self.received: list[tuple[float, object, object]] = []

    def on_message(self, sender, message) -> None:
        self.received.append((self.now, sender, message))


def make_world(delay_model=None, fifo: bool = True, seed: int = 0, n: int = 3):
    simulator = Simulator(seed=seed)
    network = Network(simulator, delay_model=delay_model, fifo=fifo)
    processes = [Recorder(i) for i in range(n)]
    for process in processes:
        network.register(process)
    return simulator, network, processes


class TestDelivery:
    def test_message_arrives_after_fixed_delay(self) -> None:
        simulator, _, processes = make_world(FixedDelay(2.0))
        processes[0].send(1, Ping(7))
        simulator.run()
        assert processes[1].received == [(2.0, 0, Ping(7))]

    def test_send_to_unknown_process_raises(self) -> None:
        simulator, network, _ = make_world()
        with pytest.raises(SimulationError):
            network.send(0, 99, Ping(0))

    def test_duplicate_registration_raises(self) -> None:
        simulator, network, _ = make_world()
        with pytest.raises(SimulationError):
            network.register(Recorder(0))

    def test_message_counters(self) -> None:
        simulator, _, processes = make_world()
        sent: list[object] = []
        delivered: list[object] = []
        simulator.tracer.observe_messages(
            lambda *call: sent.append(call[3]), lambda *call: delivered.append(call[3])
        )
        processes[0].send(1, Ping(1))
        processes[0].send(2, Ping(2))
        simulator.run()
        assert sent == [Ping(1), Ping(2)]
        assert delivered == [Ping(1), Ping(2)]

    def test_trace_records_send_and_delivery(self) -> None:
        simulator, _, processes = make_world()
        processes[0].send(1, Ping(5))
        simulator.run()
        assert len(simulator.tracer.events("net.sent")) == 1
        assert len(simulator.tracer.events("net.delivered")) == 1


class _PayloadLog:
    """A profile hook that keeps every heap payload the engine runs."""

    def __init__(self) -> None:
        self.payloads: list[object] = []

    def before_event(self, event) -> None:
        self.payloads.append(event)

    def after_event(self, event, queue_depth: int) -> None:
        pass


class TestDeliveryRecord:
    """A send is one slotted record on the event heap, not a timer Event."""

    @staticmethod
    def _pair(delay_override=None):
        simulator = Simulator(seed=0)
        network = Network(simulator)
        network.delay_override = delay_override
        receiver = Recorder("b")
        network.register(Recorder("a"))
        network.register(receiver)
        return simulator, network, receiver

    def test_one_send_is_one_heap_entry_that_step_delivers(self) -> None:
        simulator, network, receiver = self._pair()
        log = _PayloadLog()
        simulator.profile_hook = log
        network.send("a", "b", Ping(1))
        assert simulator.queue.heap_size == 1
        assert simulator.step()
        assert receiver.received == [(1.0, "a", Ping(1))]
        assert simulator.queue.heap_size == 0
        [payload] = log.payloads
        assert not isinstance(payload, Event)
        assert not hasattr(payload, "__dict__")
        assert payload.cancelled is False
        assert payload.time == 1.0
        assert payload.name == "deliver Ping 'a'->'b'"

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_delay_raises_and_queues_nothing(
        self, delay: float
    ) -> None:
        simulator, network, _ = self._pair(lambda *_: delay)
        sent: list[object] = []
        simulator.tracer.observe_messages(lambda *call: sent.append(call), lambda *_: None)
        with pytest.raises(SimulationError, match=re.escape(f"got {delay}")):
            network.send("a", "b", Ping(1))
        assert simulator.queue.heap_size == 0
        assert sent == []


class TestFifoOrdering:
    def test_fifo_preserved_under_random_delays(self) -> None:
        simulator, _, processes = make_world(ExponentialDelay(mean=5.0), seed=3)
        for i in range(50):
            processes[0].send(1, Ping(i))
        simulator.run()
        payloads = [message.payload for _, _, message in processes[1].received]
        assert payloads == list(range(50))

    def test_fifo_applies_per_channel_not_globally(self) -> None:
        # Messages on different channels may overtake each other freely.
        simulator, _, processes = make_world(FixedDelay(1.0))
        processes[0].send(2, Ping(0))
        processes[1].send(2, Ping(1))
        simulator.run()
        assert len(processes[2].received) == 2

    def test_non_fifo_mode_can_reorder(self) -> None:
        # With fifo=False and wildly varying delays, at least one channel
        # reorders for this seed.  (The ablation tests rely on this.)
        for seed in range(20):
            simulator, _, processes = make_world(
                ExponentialDelay(mean=5.0), fifo=False, seed=seed
            )
            for i in range(30):
                processes[0].send(1, Ping(i))
            simulator.run()
            payloads = [m.payload for _, _, m in processes[1].received]
            if payloads != sorted(payloads):
                return
        pytest.fail("no reordering observed across 20 seeds with fifo disabled")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_fifo_property_any_seed(self, seed: int) -> None:
        simulator, _, processes = make_world(ExponentialDelay(mean=2.0), seed=seed)
        for i in range(20):
            processes[0].send(1, Ping(i))
            processes[1].send(0, Ping(100 + i))
        simulator.run()
        assert [m.payload for _, _, m in processes[1].received] == list(range(20))
        assert [m.payload for _, _, m in processes[0].received] == list(range(100, 120))


class TestDelayModels:
    def test_fixed_delay_validation(self) -> None:
        with pytest.raises(SimulationError):
            FixedDelay(-1.0)

    def test_uniform_delay_bounds(self) -> None:
        model = UniformDelay(1.0, 3.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 3.0

    def test_uniform_delay_validation(self) -> None:
        with pytest.raises(SimulationError):
            UniformDelay(3.0, 1.0)
        with pytest.raises(SimulationError):
            UniformDelay(-1.0, 1.0)

    def test_exponential_delay_positive(self) -> None:
        model = ExponentialDelay(mean=2.0)
        rng = random.Random(0)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(s >= 0 for s in samples)
        assert 1.0 < sum(samples) / len(samples) < 3.0

    def test_exponential_delay_validation(self) -> None:
        with pytest.raises(SimulationError):
            ExponentialDelay(mean=0.0)
