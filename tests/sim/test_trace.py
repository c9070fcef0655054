"""Unit tests for the tracer."""

from __future__ import annotations

from typing import Any

import pytest

from repro.basic.system import BasicSystem
from repro.core.assembly import build_runtime
from repro.core.registry import get_variant
from repro.core.transport import Transport
from repro.obs.metrics import telemetry_for_variant
from repro.sim import categories
from repro.sim import trace as trace_module
from repro.sim.process import Process
from repro.sim.trace import TraceEvent, Tracer
from repro.workloads.scenarios import schedule_cycle


class TestTracer:
    def test_records_events(self) -> None:
        tracer = Tracer()
        tracer.record(1.0, "a.b", x=1)
        tracer.record(2.0, "a.c", x=2)
        assert len(tracer) == 2
        assert tracer.events("a.b")[0]["x"] == 1

    def test_category_filter_is_exact(self) -> None:
        tracer = Tracer()
        tracer.record(1.0, "a.b")
        tracer.record(1.0, "a.b.c")
        assert len(tracer.events("a.b")) == 1

    def test_prefix_filter(self) -> None:
        tracer = Tracer()
        tracer.record(1.0, "a.b")
        tracer.record(1.0, "a.b.c")
        tracer.record(1.0, "z")
        assert len(tracer.events_with_prefix("a.b")) == 2

    def test_disabled_tracer_records_nothing(self) -> None:
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "a")
        assert len(tracer) == 0

    def test_subscribers_fire_even_when_disabled(self) -> None:
        tracer = Tracer(enabled=False)
        seen: list[TraceEvent] = []
        tracer.subscribe(seen.append)
        tracer.record(1.0, "a", k="v")
        assert len(tracer) == 0
        assert len(seen) == 1
        assert seen[0]["k"] == "v"

    def test_unsubscribe_stops_delivery(self) -> None:
        tracer = Tracer()
        seen: list[TraceEvent] = []
        tracer.subscribe(seen.append)
        tracer.record(1.0, "a")
        tracer.unsubscribe(seen.append)
        tracer.record(2.0, "b")
        assert [event.category for event in seen] == ["a"]

    def test_unsubscribe_unknown_callback_raises(self) -> None:
        tracer = Tracer()
        with pytest.raises(ValueError, match="not subscribed"):
            tracer.unsubscribe(lambda event: None)

    def test_subscribed_context_manager_detaches(self) -> None:
        tracer = Tracer()
        seen: list[TraceEvent] = []
        with tracer.subscribed(seen.append):
            tracer.record(1.0, "inside")
        tracer.record(2.0, "outside")
        assert [event.category for event in seen] == ["inside"]

    def test_subscribed_detaches_on_error(self) -> None:
        tracer = Tracer()
        seen: list[TraceEvent] = []
        with pytest.raises(RuntimeError):
            with tracer.subscribed(seen.append):
                raise RuntimeError("boom")
        tracer.record(1.0, "after")
        assert seen == []

    def test_idle_and_wants_track_every_transition(self) -> None:
        # the precomputed fast-path flags behind wants()/record(): fully
        # idle -> category-scoped -> wildcard -> enabled, and back.
        tracer = Tracer(enabled=False)
        assert tracer.idle
        assert not tracer.wants("a")

        listener = lambda event: None  # noqa: E731
        tracer.subscribe(listener, categories=("a",))
        assert not tracer.idle
        assert tracer.wants("a") and not tracer.wants("b")

        wildcard = lambda event: None  # noqa: E731
        tracer.subscribe(wildcard)
        assert tracer.wants("b")  # wildcard sees everything
        tracer.unsubscribe(wildcard)
        assert not tracer.wants("b")

        tracer.unsubscribe(listener)
        assert tracer.idle

        tracer.enabled = True
        assert not tracer.idle and tracer.wants("anything")
        tracer.enabled = False
        assert tracer.idle

    def test_unwatched_category_is_dropped_not_buffered(self) -> None:
        # the cold-subscribed regime: recording a category nobody watches
        # must neither buffer the event nor call any subscriber.
        tracer = Tracer(enabled=False)
        seen: list[TraceEvent] = []
        tracer.subscribe(seen.append, categories=("watched",))
        tracer.record(1.0, "unwatched", x=1)
        tracer.record(2.0, "watched", x=2)
        assert len(tracer) == 0
        assert [event.category for event in seen] == ["watched"]

    @pytest.mark.parametrize("scope", [None, ("a",)], ids=["wildcard", "scoped"])
    def test_self_unsubscribe_during_dispatch_drops_no_event(
        self, scope: tuple[str, ...] | None
    ) -> None:
        # Dispatch runs over the subscribers routed when record() starts:
        # a subscriber leaving mid-dispatch must not make the next one on
        # the same list miss the event.
        tracer = Tracer(enabled=False)
        seen: list[tuple[str, float]] = []

        def first(event: TraceEvent) -> None:
            seen.append(("first", event.time))
            tracer.unsubscribe(first)

        def second(event: TraceEvent) -> None:
            seen.append(("second", event.time))

        tracer.subscribe(first, categories=scope)
        tracer.subscribe(second, categories=scope)
        tracer.record(1.0, "a")
        tracer.record(2.0, "a")
        assert seen == [("first", 1.0), ("second", 1.0), ("second", 2.0)]

    def test_subscription_made_during_dispatch_starts_with_the_next_record(self) -> None:
        tracer = Tracer(enabled=False)
        seen: list[float] = []

        def late(event: TraceEvent) -> None:
            seen.append(event.time)

        def first(event: TraceEvent) -> None:
            if event.time == 1.0:
                tracer.subscribe(late, categories=("a",))

        tracer.subscribe(first, categories=("a",))
        tracer.record(1.0, "a")
        tracer.record(2.0, "a")
        assert seen == [2.0]

    def test_empty_category_subscription_is_rejected(self) -> None:
        tracer = Tracer()
        with pytest.raises(ValueError, match="non-empty"):
            tracer.subscribe(lambda event: None, categories=())

    def test_clear(self) -> None:
        tracer = Tracer()
        tracer.record(1.0, "a")
        tracer.clear()
        assert len(tracer) == 0

    def test_iteration(self) -> None:
        tracer = Tracer()
        tracer.record(1.0, "a")
        tracer.record(2.0, "b")
        assert [event.category for event in tracer] == ["a", "b"]


class TestRoutes:
    """The precomputed route table behind wants() and record()."""

    def test_wildcards_run_before_scoped_subscribers(self) -> None:
        tracer = Tracer(enabled=False)
        order: list[str] = []
        tracer.subscribe(lambda event: order.append("scoped-1"), categories=("a",))
        tracer.subscribe(lambda event: order.append("wildcard-1"))
        tracer.subscribe(lambda event: order.append("scoped-2"), categories=("a", "b"))
        tracer.subscribe(lambda event: order.append("wildcard-2"))
        tracer.record(1.0, "a")
        assert order == ["wildcard-1", "wildcard-2", "scoped-1", "scoped-2"]

    def test_routes_follow_every_subscription_change_and_enabled_flip(self) -> None:
        def a(event: TraceEvent) -> None:
            pass

        def b(event: TraceEvent) -> None:
            pass

        def w(event: TraceEvent) -> None:
            pass

        tracer = Tracer(enabled=False)
        assert tracer.routes == {} and "x" not in tracer.routes
        tracer.subscribe(a, categories=("x",))
        assert tracer.routes == {"x": (a,)}
        tracer.subscribe(b, categories=("x", "y"))
        assert tracer.routes == {"x": (a, b), "y": (b,)}
        assert "z" not in tracer.routes

        tracer.subscribe(w)
        assert tracer.routes == {"x": (w, a, b), "y": (w, b)}
        assert "z" in tracer.routes and tracer.routes["z"] == (w,)

        tracer.enabled = True
        assert tracer.routes["x"] == (w, a, b) and tracer.routes["z"] == (w,)
        tracer.unsubscribe(w)
        assert tracer.routes == {"x": (a, b), "y": (b,)}
        assert "z" in tracer.routes and tracer.routes["z"] == ()

        tracer.enabled = False
        assert tracer.routes == {"x": (a, b), "y": (b,)} and "z" not in tracer.routes
        tracer.unsubscribe(b)
        assert tracer.routes == {"x": (a,)}
        tracer.unsubscribe(a)
        assert tracer.routes == {} and "x" not in tracer.routes

    @pytest.mark.parametrize(
        "enabled, wildcard, scoped",
        [
            (False, False, ()),
            (False, False, ("a",)),
            (False, True, ()),
            (False, True, ("a",)),
            (True, False, ()),
            (True, False, ("a",)),
        ],
    )
    def test_wants_is_exactly_would_log_or_reach_a_subscriber(
        self, enabled: bool, wildcard: bool, scoped: tuple[str, ...]
    ) -> None:
        tracer = Tracer(enabled=enabled)
        seen: list[TraceEvent] = []
        if wildcard:
            tracer.subscribe(seen.append)
        if scoped:
            tracer.subscribe(seen.append, categories=scoped)
        for category in ("a", "b"):
            before = (len(tracer), len(seen))
            wanted = tracer.wants(category)
            tracer.record(0.0, category)
            assert wanted == ((len(tracer), len(seen)) != before), category

    def test_untraced_cycle_records_only_what_the_system_reads(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # trace=False and no observer: the system subscribes to no
        # category (it stamps formation times by direct call), so every
        # category must stop at the producer -- no record() call, no
        # TraceEvent.
        recorded: list[str] = []
        built: list[TraceEvent] = []
        record = Tracer.record

        def counting_record(
            tracer: Tracer, time: float, category: str, **details: Any
        ) -> None:
            recorded.append(category)
            record(tracer, time, category, **details)

        class CountedEvent(TraceEvent):
            def __new__(cls, *args: Any, **kwargs: Any) -> CountedEvent:
                event = super().__new__(cls)
                built.append(event)
                return event

        monkeypatch.setattr(Tracer, "record", counting_record)
        monkeypatch.setattr(trace_module, "TraceEvent", CountedEvent)
        system = BasicSystem(n_vertices=6, trace=False)
        schedule_cycle(system, list(range(6)))
        system.run_to_quiescence()
        assert len(system.declarations) == 6
        assert system.deadlock_formed_at
        read: set[str] = set()
        assert set(recorded) == read
        assert len(built) == len(recorded)
        assert {event.category for event in built} == read


    def test_monitored_untraced_cycle_builds_no_net_event(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Telemetry and the span fold read sends and deliveries through
        # the message channel: attached with trace=False, they route no
        # net.* category, so no net.* TraceEvent is ever built.
        recorded: list[str] = []
        built: list[TraceEvent] = []
        record = Tracer.record

        def counting_record(
            tracer: Tracer, time: float, category: str, **details: Any
        ) -> None:
            recorded.append(category)
            record(tracer, time, category, **details)

        class CountedEvent(TraceEvent):
            def __new__(cls, *args: Any, **kwargs: Any) -> CountedEvent:
                event = super().__new__(cls)
                built.append(event)
                return event

        monkeypatch.setattr(Tracer, "record", counting_record)
        monkeypatch.setattr(trace_module, "TraceEvent", CountedEvent)
        system = BasicSystem(n_vertices=6, trace=False)
        telemetry = telemetry_for_variant(
            system.transport, get_variant("basic").capabilities, n_vertices=6
        )
        schedule_cycle(system, list(range(6)))
        system.run_to_quiescence()
        telemetry.finish()
        assert len(telemetry.detection_latencies) == 6
        assert telemetry.registry.snapshot()["repro_messages_total"]["series"]
        net = {categories.NET_SENT, categories.NET_DELIVERED}
        assert not net & set(recorded)
        assert not net & {event.category for event in built}


class _Sink(Process):
    def on_message(self, sender: Any, message: Any) -> None:
        pass


def _pair(trace: bool = False) -> Transport:
    """A sim transport with processes ``a`` and ``b`` registered."""
    transport = build_runtime(trace=trace).transport
    transport.register(_Sink("a"))
    transport.register(_Sink("b"))
    return transport


class TestMessageChannel:
    """observe_messages: the positional channel for sends and deliveries."""

    @pytest.mark.parametrize(
        "enabled, wildcard, scoped, built_categories",
        [
            (False, False, None, set()),
            (False, False, categories.BASIC_PROBE_SENT, set()),
            (False, False, categories.NET_SENT, {categories.NET_SENT}),
            (False, False, categories.NET_DELIVERED, {categories.NET_DELIVERED}),
            (False, True, None, {categories.NET_SENT, categories.NET_DELIVERED}),
            (True, False, None, {categories.NET_SENT, categories.NET_DELIVERED}),
        ],
        ids=["observer-only", "other-scoped", "sent-scoped", "delivered-scoped",
             "wildcard", "log"],
    )
    def test_net_events_are_built_only_while_routed(
        self,
        monkeypatch: pytest.MonkeyPatch,
        enabled: bool,
        wildcard: bool,
        scoped: str | None,
        built_categories: set[str],
    ) -> None:
        built: list[TraceEvent] = []

        class CountedEvent(TraceEvent):
            def __new__(cls, *args: Any, **kwargs: Any) -> CountedEvent:
                event = super().__new__(cls)
                built.append(event)
                return event

        monkeypatch.setattr(trace_module, "TraceEvent", CountedEvent)
        transport = _pair(trace=enabled)
        tracer = transport.tracer
        sent: list[tuple[Any, ...]] = []
        delivered: list[tuple[Any, ...]] = []
        tracer.observe_messages(
            lambda *call: sent.append(call), lambda *call: delivered.append(call)
        )
        if wildcard:
            tracer.subscribe(lambda event: None)
        if scoped is not None:
            tracer.subscribe(lambda event: None, categories=(scoped,))
        transport.process("a").send("b", "m")
        transport.run_to_quiescence()
        assert sent == [(0.0, "a", "b", "m")]
        assert delivered == [(1.0, "a", "b", "m")]
        assert {event.category for event in built} == built_categories
        assert len(built) == len(built_categories)

    def test_adapter_records_before_the_observers_run(self) -> None:
        transport = _pair()
        tracer = transport.tracer
        order: list[tuple[str, Any]] = []
        tracer.observe_messages(
            lambda *call: order.append(("sent-observer", call[3])),
            lambda *call: order.append(("delivered-observer", call[3])),
        )
        tracer.subscribe(
            lambda event: order.append((event.category, event["message"])),
            categories=(categories.NET_SENT, categories.NET_DELIVERED),
        )
        transport.process("a").send("b", "m")
        transport.run_to_quiescence()
        assert order == [
            (categories.NET_SENT, "m"),
            ("sent-observer", "m"),
            (categories.NET_DELIVERED, "m"),
            ("delivered-observer", "m"),
        ]

    def test_observer_changes_during_a_dispatch_start_with_the_next_message(
        self,
    ) -> None:
        transport = _pair()
        tracer = transport.tracer
        seen: list[tuple[str, Any]] = []

        def late(time: float, sender: Any, destination: Any, message: Any) -> None:
            seen.append(("late", message))

        def first(time: float, sender: Any, destination: Any, message: Any) -> None:
            seen.append(("first", message))
            tracer.unobserve_messages(on_sent=first)
            tracer.observe_messages(on_sent=late)

        def second(time: float, sender: Any, destination: Any, message: Any) -> None:
            seen.append(("second", message))

        tracer.observe_messages(on_sent=first)
        tracer.observe_messages(on_sent=second)
        sender = transport.process("a")
        sender.send("b", 1)
        sender.send("b", 2)
        assert seen == [("first", 1), ("second", 1), ("second", 2), ("late", 2)]

    def test_idle_is_false_while_any_observer_is_attached(self) -> None:
        tracer = Tracer(enabled=False)

        def observer(time: float, sender: Any, destination: Any, message: Any) -> None:
            pass

        assert tracer.idle
        for attached in ({"on_sent": observer}, {"on_delivered": observer}):
            tracer.observe_messages(**attached)
            assert not tracer.idle
            assert tracer.routes == {}
            tracer.unobserve_messages(**attached)
            assert tracer.idle

    def test_unobserving_an_unknown_callback_raises(self) -> None:
        tracer = Tracer(enabled=False)

        def attached(time: float, sender: Any, destination: Any, message: Any) -> None:
            pass

        tracer.observe_messages(on_sent=attached)
        with pytest.raises(ValueError, match="not attached"):
            tracer.unobserve_messages(on_delivered=attached)
        with pytest.raises(ValueError, match="not attached"):
            tracer.unobserve_messages(attached, lambda *call: None)
        # a failed detach detaches nothing
        assert tracer.sent_observers == (attached,)
        tracer.unobserve_messages(on_sent=attached)
        assert tracer.idle


class TestRng:
    def test_derive_seed_stable(self) -> None:
        from repro.sim.rng import derive_seed

        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_registry_memoises_streams(self) -> None:
        from repro.sim.rng import RngRegistry

        registry = RngRegistry(0)
        assert registry.stream("a") is registry.stream("a")

    def test_fork_is_independent_and_reproducible(self) -> None:
        from repro.sim.rng import RngRegistry

        first = RngRegistry(0).fork("rep1").stream("x").random()
        second = RngRegistry(0).fork("rep1").stream("x").random()
        other = RngRegistry(0).fork("rep2").stream("x").random()
        assert first == second
        assert first != other
