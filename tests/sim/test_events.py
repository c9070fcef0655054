"""Unit tests for the event queue: ordering, stability, cancellation."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class TestEventQueueOrdering:
    def test_pops_in_time_order(self) -> None:
        queue = EventQueue()
        fired: list[str] = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while queue:
            queue.pop().action()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_run_in_insertion_order(self) -> None:
        queue = EventQueue()
        fired: list[int] = []
        for i in range(10):
            queue.push(1.0, lambda i=i: fired.append(i))
        while queue:
            queue.pop().action()
        assert fired == list(range(10))

    def test_next_time_reports_earliest(self) -> None:
        queue = EventQueue()
        assert queue.next_time is None
        queue.push(5.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.next_time == 2.0

    def test_pop_empty_raises(self) -> None:
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self) -> None:
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)


class TestEventCancellation:
    def test_cancelled_event_is_skipped(self) -> None:
        queue = EventQueue()
        fired: list[str] = []
        handle = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        handle.cancel()
        while queue:
            queue.pop().action()
        assert fired == ["kept"]

    def test_cancel_is_idempotent(self) -> None:
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert not queue

    def test_cancelled_head_does_not_block_next_time(self) -> None:
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        head.cancel()
        assert queue.next_time == 2.0

    def test_len_counts_live_events_only(self) -> None:
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert len(queue) == 3

    def test_push_returns_the_event_pop_yields(self) -> None:
        # The event is its own handle: no wrapper object per schedule.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, name="timer")
        assert isinstance(event, Event)
        assert queue.pop() is event

    def test_cancelled_node_timer_never_fires(self) -> None:
        simulator = Simulator(seed=0)
        network = Network(simulator)
        node = Process("n")
        network.register(node)
        fired: list[str] = []
        timer = node.ctx.set_timer(2.0, lambda: fired.append("cancelled"))
        node.ctx.set_timer(3.0, lambda: fired.append("kept"))
        timer.cancel()
        assert isinstance(timer, Event)
        assert timer.cancelled
        simulator.run()
        assert fired == ["kept"]
        assert simulator.events_executed == 1

    def test_empty_queue_is_falsy(self) -> None:
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue
