"""The transport contract suite: executable axiom P4.

Every :class:`~repro.core.transport.Transport` backend must deliver
reliably (no loss, no duplication), keep per-channel FIFO order whatever
delays are drawn, and fire timers in local-clock order.  This suite runs
the same assertions against the deterministic simulator backend, the
wall-clock asyncio backend, and the multi-process cluster backend --
passing here is what licenses running the same protocol code on any of
them.
"""

from __future__ import annotations

import math
import re
import time

import pytest

from repro.cluster.transport import ClusterTransport
from repro.core.transport import Transport
from repro.errors import SimulationError
from repro.live.transport import AsyncioTransport
from repro.obs.metrics import telemetry_for_variant
from repro.sim import categories
from repro.sim.network import UniformDelay
from repro.sim.process import Process
from repro.sim.transport import SimTransport

#: wall-clock budget of every live and cluster run in this suite.
WALL_BUDGET_S = 20.0


class Recorder(Process):
    """Appends every delivery as ``(sender, message)``."""

    def __init__(self, pid) -> None:
        super().__init__(pid)
        self.seen: list[tuple[object, object]] = []

    def on_message(self, sender, message) -> None:
        self.seen.append((sender, message))


def _build(backend: str, seed: int = 0, delay_model=None, fifo: bool = True) -> Transport:
    if backend == "sim":
        from repro.core.assembly import build_runtime

        return build_runtime(seed=seed, delay_model=delay_model, fifo=fifo).transport
    if backend == "cluster":
        # Same tiny time scale; the FIFO and delivery assertions now hold
        # across real process boundaries and socket frames.
        return ClusterTransport(
            seed=seed,
            delay_model=delay_model,
            fifo=fifo,
            time_scale=0.001,
            max_wall_seconds=WALL_BUDGET_S,
        )
    # Tiny time scale: drawn delays become sub-millisecond sleeps, so the
    # whole suite stays fast while the loop genuinely interleaves callbacks.
    return AsyncioTransport(
        seed=seed,
        delay_model=delay_model,
        fifo=fifo,
        time_scale=0.001,
        max_wall_seconds=WALL_BUDGET_S,
    )


def _count_messages(transport: Transport) -> tuple[list[object], list[object]]:
    """Every message the transport sends and delivers from now on, as
    the tracer's message observers see them (transports keep no counters)."""
    sent: list[object] = []
    delivered: list[object] = []
    transport.tracer.observe_messages(
        lambda *call: sent.append(call[3]), lambda *call: delivered.append(call[3])
    )
    return sent, delivered


@pytest.fixture(params=["sim", "asyncio", "cluster"])
def backend(request) -> str:
    return request.param


@pytest.fixture(params=["asyncio", "cluster"])
def wall_backend(request) -> str:
    return request.param


class TestP4Fifo:
    def test_per_channel_fifo_under_randomized_delays(self, backend) -> None:
        # Heavy delay spread: successive messages frequently draw wildly
        # different nominal delays and would reorder without the FIFO
        # guarantee.
        transport = _build(backend, seed=7, delay_model=UniformDelay(0.1, 3.0))
        try:
            sender = Recorder("src")
            receiver = Recorder("dst")
            transport.register(sender)
            transport.register(receiver)
            for i in range(60):
                sender.send("dst", i)
            transport.run_to_quiescence()
            assert [message for _, message in receiver.seen] == list(range(60))
        finally:
            transport.close()

    def test_independent_channels_each_stay_fifo(self, backend) -> None:
        transport = _build(backend, seed=11, delay_model=UniformDelay(0.1, 2.0))
        try:
            receiver = Recorder("hub")
            transport.register(receiver)
            senders = [Recorder(f"s{i}") for i in range(3)]
            for process in senders:
                transport.register(process)
            for i in range(20):
                for process in senders:
                    process.send("hub", i)
            transport.run_to_quiescence()
            for process in senders:
                channel = [m for s, m in receiver.seen if s == process.pid]
                assert channel == list(range(20)), f"channel {process.pid} reordered"
        finally:
            transport.close()

    def test_no_message_lost_or_duplicated(self, backend) -> None:
        transport = _build(backend, seed=3, delay_model=UniformDelay(0.0, 1.5))
        try:
            sender = Recorder("a")
            receiver = Recorder("b")
            transport.register(sender)
            transport.register(receiver)
            sent, delivered = _count_messages(transport)
            payload = list(range(40))
            for i in payload:
                sender.send("b", i)
            transport.run_to_quiescence()
            assert sorted(m for _, m in receiver.seen) == payload
            assert len(sent) == 40
            assert len(delivered) == 40
        finally:
            transport.close()


class TestMessageObservers:
    """The tracer's message channel sees each send and delivery once."""

    def test_each_observer_sees_every_send_and_delivery_once(self, backend) -> None:
        transport = _build(backend, seed=5, delay_model=UniformDelay(0.1, 2.0))
        try:
            receiver = Recorder("hub")
            transport.register(receiver)
            senders = [Recorder(f"s{i}") for i in range(2)]
            for process in senders:
                transport.register(process)
            logs = [([], []) for _ in range(2)]
            for sent, delivered in logs:
                # *call rejects keyword arguments: the channel is positional.
                transport.tracer.observe_messages(
                    lambda *call, log=sent: log.append(call),
                    lambda *call, log=delivered: log.append(call),
                )
            for i in range(15):
                for process in senders:
                    process.send("hub", i)
            transport.run_to_quiescence()
            sends = [(process.pid, "hub", i) for i in range(15) for process in senders]
            for sent, delivered in logs:
                assert [call[1:] for call in sent] == sends
                assert len(delivered) == len(sends)
                for process in senders:
                    channel = [call[2:] for call in delivered if call[1] == process.pid]
                    assert channel == [("hub", i) for i in range(15)]
                # each delivery is observed just before its handler runs
                assert [(s, m) for _, s, _, m in delivered] == receiver.seen
                sent_at = {call[1:]: call[0] for call in sent}
                times = [call[0] for call in delivered]
                assert times == sorted(times)
                for call in delivered:
                    assert call[0] >= sent_at[call[1:]]
            assert logs[0] == logs[1]
        finally:
            transport.close()


class TestChannelChain:
    """One channel's deliveries, with delays scripted so the second of two
    messages would overtake the first (1 ms per unit on the wall clock)."""

    @staticmethod
    def _slow_then_fast(backend: str, fifo: bool) -> list[object]:
        transport = _build(backend, fifo=fifo)
        try:
            sender = Recorder("a")
            receiver = Recorder("b")
            transport.register(sender)
            transport.register(receiver)
            transport.delay_override = lambda src, dst, message: 20.0 if message == 0 else 1.0
            _, delivered = _count_messages(transport)
            sender.send("b", 0)
            sender.send("b", 1)
            transport.run_to_quiescence()
            assert transport.quiescent
            assert len(delivered) == 2
            return [message for _, message in receiver.seen]
        finally:
            transport.close()

    def test_fifo_short_message_waits_behind_the_armed_head(self, wall_backend) -> None:
        assert self._slow_then_fast(wall_backend, fifo=True) == [0, 1]

    def test_loose_short_message_overtakes(self, wall_backend) -> None:
        assert self._slow_then_fast(wall_backend, fifo=False) == [1, 0]

    def test_handler_sending_on_its_own_channel_delivers_each_once(self, backend) -> None:
        # A delivery's handler appends to the channel it was delivered
        # from: the chain must neither drop nor double-deliver.
        class Looper(Process):
            def __init__(self, pid) -> None:
                super().__init__(pid)
                self.seen: list[object] = []

            def on_message(self, sender, message) -> None:
                self.seen.append(message)
                if message < 10:
                    self.send(self.pid, message + 10)

        transport = _build(backend, seed=5, delay_model=UniformDelay(0.1, 2.0))
        try:
            node = Looper("loop")
            transport.register(node)
            for i in range(3):
                node.send("loop", i)
            transport.run_to_quiescence()
            assert node.seen == [0, 1, 2, 10, 11, 12]
        finally:
            transport.close()


class TestCallbackFailures:
    """A coordinator-side callback that raises surfaces as its own
    exception, at once -- not as a wall-budget error or a lost worker."""

    @staticmethod
    def _pair(transport: Transport) -> tuple[Recorder, Recorder]:
        sender = Recorder("a")
        receiver = Recorder("b")
        transport.register(sender)
        transport.register(receiver)
        return sender, receiver

    def test_raising_trace_subscriber_surfaces(self, backend) -> None:
        def explode(event) -> None:
            raise ValueError("boom in subscriber")

        transport = _build(backend)
        try:
            sender, _ = self._pair(transport)
            transport.tracer.subscribe(explode, [categories.NET_DELIVERED])
            sender.send("b", 1)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="boom in subscriber"):
                transport.run_to_quiescence()
            assert time.perf_counter() - started < WALL_BUDGET_S / 4
        finally:
            transport.close()

    def test_raising_message_observer_surfaces(self, backend) -> None:
        def explode(time, sender, destination, message) -> None:
            raise ValueError("boom in observer")

        transport = _build(backend)
        try:
            sender, _ = self._pair(transport)
            transport.tracer.observe_messages(on_delivered=explode)
            sender.send("b", 1)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="boom in observer"):
                transport.run_to_quiescence()
            assert time.perf_counter() - started < WALL_BUDGET_S / 4
        finally:
            transport.close()

    def test_raising_predicate_surfaces(self, backend) -> None:
        transport = _build(backend)
        try:
            sender, receiver = self._pair(transport)

            def predicate() -> bool:
                if receiver.seen:
                    raise ValueError("boom in predicate")
                return False

            for i in range(3):
                sender.send("b", i)
            started = time.perf_counter()
            with pytest.raises(ValueError, match="boom in predicate"):
                transport.run_until(predicate)
            assert time.perf_counter() - started < WALL_BUDGET_S / 4
        finally:
            transport.close()


class TestTimers:
    def test_timers_fire_in_delay_order(self, backend) -> None:
        transport = _build(backend)
        try:
            fired: list[str] = []
            # Deliberately scheduled out of order; generous spacing keeps
            # the ordering unambiguous under wall-clock jitter.
            transport.schedule(12.0, lambda: fired.append("late"))
            transport.schedule(2.0, lambda: fired.append("early"))
            transport.schedule(7.0, lambda: fired.append("middle"))
            transport.run_to_quiescence()
            assert fired == ["early", "middle", "late"]
        finally:
            transport.close()

    def test_cancelled_timer_never_fires_and_run_quiesces(self, backend) -> None:
        transport = _build(backend)
        try:
            fired: list[str] = []
            handle = transport.schedule(5.0, lambda: fired.append("cancelled"))
            transport.schedule(2.0, lambda: fired.append("kept"))
            handle.cancel()
            handle.cancel()  # idempotent
            transport.run_to_quiescence()
            assert fired == ["kept"]
        finally:
            transport.close()

    def test_sliced_run_ends_exactly_when_quiescent(self, backend) -> None:
        # the run path's tick loop: run(until=...) slices, then ask the
        # transport whether anything is still pending.
        transport = _build(backend)
        try:
            sender, receiver = Recorder("a"), Recorder("b")
            transport.register(sender)
            transport.register(receiver)
            fired: list[str] = []
            transport.schedule(6.0, lambda: fired.append("timer"))
            sender.send("b", "hello")
            assert not transport.quiescent
            slices = 0
            while not transport.quiescent:
                transport.run(until=transport.now + 2.0)
                slices += 1
                assert slices < 100, "sliced run never quiesced"
            assert fired == ["timer"]
            assert receiver.seen == [("a", "hello")]
            assert slices >= 2
        finally:
            transport.close()

    def test_node_timer_sees_advanced_clock(self, backend) -> None:
        transport = _build(backend)
        try:
            node = Recorder("n")
            ctx = transport.register(node)
            observed: list[float] = []
            ctx.set_timer(4.0, lambda: observed.append(ctx.now()))
            transport.run_to_quiescence()
            assert len(observed) == 1
            assert observed[0] >= 4.0

            assert transport.now >= observed[0]
        finally:
            transport.close()


class TestRegistrationAndDriving:
    def test_duplicate_pid_rejected(self, backend) -> None:
        transport = _build(backend)
        try:
            transport.register(Recorder("x"))
            with pytest.raises(SimulationError, match="duplicate process id 'x'"):
                transport.register(Recorder("x"))
        finally:
            transport.close()

    def test_send_to_unknown_process_rejected(self, backend) -> None:
        transport = _build(backend)
        try:
            node = Recorder("known")
            transport.register(node)
            with pytest.raises(SimulationError, match="unknown process"):
                node.send("ghost", "hello")
        finally:
            transport.close()

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_delay_rejected_at_send(self, backend, delay) -> None:
        # P4 promises every message a finite delay.  A NaN or infinite one
        # fails the send; it is not delivered at once, at time nan, or
        # after the run's wall-clock budget.
        transport = _build(backend)
        try:
            sender, receiver = Recorder("a"), Recorder("b")
            transport.register(sender)
            transport.register(receiver)
            scripted = transport.network if backend == "sim" else transport
            scripted.delay_override = lambda src, dst, message: delay
            sent, delivered = _count_messages(transport)
            with pytest.raises(SimulationError, match=re.escape(f"got {delay}")):
                sender.send("b", "hello")
            assert transport.quiescent
            transport.run_to_quiescence()
            assert sent == [] and delivered == [] and receiver.seen == []
        finally:
            transport.close()

    def test_run_until_stops_at_predicate(self, backend) -> None:
        transport = _build(backend)
        try:
            sender = Recorder("a")
            receiver = Recorder("b")
            transport.register(sender)
            transport.register(receiver)
            for i in range(10):
                sender.send("b", i)
            satisfied = transport.run_until(lambda: len(receiver.seen) >= 3)
            assert satisfied
            assert len(receiver.seen) >= 3
            transport.run_to_quiescence()
            assert len(receiver.seen) == 10
        finally:
            transport.close()

    def test_zero_event_run_runs_nothing_and_a_pause_delays_nothing(self, backend) -> None:
        # run(max_events=0) only fixes the clock's origin (and spawns the
        # cluster's workers): the t=0 timer waits for the next run, and a
        # pause before that run must not shift the workers' clocks.
        class Stamper(Process):
            def __init__(self, pid) -> None:
                super().__init__(pid)
                self.received_at: list[float] = []

            def on_message(self, sender, message) -> None:
                self.received_at.append(self.now)

        transport = _build(backend)
        try:
            sender = Recorder("a")
            receiver = Stamper("b")
            transport.register(sender)
            transport.register(receiver)
            fired: list[float] = []
            transport.schedule(0.0, lambda: fired.append(transport.now))
            transport.run(max_events=0)
            assert fired == []
            time.sleep(0.1)  # 100 units at 1 ms per unit
            sent_at = transport.now
            sender.send("b", "hello")
            transport.run_to_quiescence()
            assert len(fired) == 1
            assert len(receiver.received_at) == 1
            assert receiver.received_at[0] - sent_at < 50.0
        finally:
            transport.close()

    def test_run_until_reports_false_on_quiescence(self, backend) -> None:
        transport = _build(backend)
        try:
            transport.register(Recorder("only"))
            assert transport.run_until(lambda: False, max_events=100) is False
        finally:
            transport.close()

    def test_satisfies_structural_transport_protocol(self, backend) -> None:
        transport = _build(backend)
        try:
            assert isinstance(transport, Transport)
            assert transport.name in {"sim", "asyncio", "cluster"}
        finally:
            transport.close()


class Counting(Process):
    """Counts every delivery under the message's own name."""

    def on_message(self, sender, message) -> None:
        self.ctx.count(message)


class TestCounts:
    """``NodeContext.count`` adds one to the transport's plain counts."""

    def test_each_count_adds_one(self, backend) -> None:
        transport = _build(backend)
        try:
            sender = Recorder("src")
            transport.register(sender)
            transport.register(Counting("dst"))
            sender.send("dst", "x")
            sender.send("dst", "x")
            transport.run_to_quiescence()
            assert transport.counts["x"] == 2
        finally:
            transport.close()

    def test_reading_a_name_never_counted_gives_zero_and_adds_nothing(self, backend) -> None:
        transport = _build(backend)
        try:
            ctx = transport.register(Counting("only"))
            ctx.count("x")
            telemetry = telemetry_for_variant(transport, None)
            before = telemetry.snapshot(transport.now)["transport_counters"]
            assert transport.counts["never"] == 0
            assert before == telemetry.snapshot(transport.now)["transport_counters"]
            assert before == {"x": 1} == dict(transport.counts)
        finally:
            transport.close()

    def test_context_can_only_count(self, backend) -> None:
        transport = _build(backend)
        try:
            ctx = transport.register(Recorder("only"))
            for removed in ("counter", "gauge", "histogram"):
                assert not hasattr(ctx, removed)
        finally:
            transport.close()


class TestLiveSpecifics:
    """Behaviour only the wall-clock backend exhibits."""

    def test_sim_transport_adopts_existing_pair(self) -> None:
        from repro.sim.network import Network
        from repro.sim.simulator import Simulator

        simulator = Simulator(seed=5)
        network = Network(simulator)
        transport = SimTransport(simulator, network)
        assert transport.simulator is simulator
        assert transport.now == 0.0

    def test_wall_clock_budget_raises(self) -> None:
        transport = AsyncioTransport(seed=0, time_scale=0.001, max_wall_seconds=0.05)
        try:
            # A timer far beyond the budget: the driver must fail loudly
            # instead of hanging.
            transport.schedule(10_000.0, lambda: None)
            with pytest.raises(SimulationError, match="max_wall_seconds"):
                transport.run_to_quiescence()
        finally:
            transport.close()

    def test_handler_failure_surfaces_in_driver(self) -> None:
        class Exploder(Process):
            def on_message(self, sender, message) -> None:
                raise ValueError("boom in handler")

        transport = AsyncioTransport(seed=0, time_scale=0.001, max_wall_seconds=5.0)
        try:
            sender = Recorder("a")
            transport.register(sender)
            transport.register(Exploder("bad"))
            sender.send("bad", 1)
            with pytest.raises(ValueError, match="boom in handler"):
                transport.run_to_quiescence()
        finally:
            transport.close()

    def test_closed_transport_rejects_running(self) -> None:
        transport = AsyncioTransport(seed=0)
        transport.close()
        transport.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            transport.run_to_quiescence()

    @pytest.mark.parametrize(
        ("backend", "knob"),
        [
            (AsyncioTransport, "time_scale"),
            (AsyncioTransport, "max_wall_seconds"),
            (ClusterTransport, "time_scale"),
            (ClusterTransport, "max_wall_seconds"),
            (ClusterTransport, "heartbeat_interval"),
            (ClusterTransport, "connect_timeout"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_knob_rejected_at_construction(
        self, backend, knob: str, value: float
    ) -> None:
        # Built, a NaN time scale would read NaN as the clock, an infinite
        # one never deliver, and an infinite heartbeat kill each worker in
        # its first wait; an infinite deadline would never pass.
        with pytest.raises(SimulationError, match=f"{knob} must be finite and positive"):
            backend(seed=0, **{knob: value})
