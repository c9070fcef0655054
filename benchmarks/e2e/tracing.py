"""Per-layer spans, recorded by wrapping each layer's public entry points.

Nothing in ``src/`` knows it is being traced: :class:`SpanRecorder`
replaces entry points with timing wrappers while it is entered and puts
every original back on exit.  A span is ``(name, start, end, parent,
event)``; spans nested under one transport event (a delivery or a timer)
share its event id.  A layer's self time is its spans' durations minus
the time their child spans cover.

The boundaries wrapped, by span name:

``sim.loop``            ``Simulator.run`` (the sim drive)
``live.loop``           ``AsyncioTransport.run_to_quiescence`` (live and cluster drive)
``sim.network.send``    ``Network.send``
``live.send``           ``AsyncioTransport.send``
``sim.trace.fanout``    ``Tracer.record``; its subscribers are child spans
``<model>.handler``     each process's ``on_message`` (wrapped at
                        ``register``) and the timers it sets
``workloads.driver``    actions passed to a transport's ``schedule``/``schedule_at``
``core.oracle``         wait-for-graph cycle queries and the systems' tracer subscribers
``core.dark_components`` ``repro.core.engine.dark_components`` in every importer
``obs.span_fold``       ``repro.obs.stream`` subscribers
``obs.telemetry``       ``repro.obs.metrics`` subscribers
``cluster.codec``       ``frames.encode_value``/``decode_value`` in their importers
``cluster.frames``      ``frames.encode_frame``/``decode_frame``, the synchronous
                        core of ``write_frame``/``read_frame`` (the coroutines
                        themselves await, so their spans would interleave)
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict, deque
from collections.abc import Callable
from types import ModuleType
from typing import Any

#: subscriber module prefix -> layer, first match wins.
_SUBSCRIBER_LAYERS = (
    ("repro.obs.stream", "obs.span_fold"),
    ("repro.obs.metrics", "obs.telemetry"),
    ("repro.basic", "core.oracle"),
    ("repro.ddb", "core.oracle"),
    ("repro.ormodel", "core.oracle"),
)


def _subscriber_layer(callback: Callable[..., Any]) -> str:
    module = getattr(callback, "__module__", None) or ""
    for prefix, layer in _SUBSCRIBER_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other.subscriber"


class SpanRecorder:
    """Context manager that traces every layer boundary while entered."""

    def __init__(self) -> None:
        #: finished spans ``(name, start, end, parent, event)``; a slot is
        #: reserved at span start so parents precede their children.
        self.spans: list[Any] = []
        #: ``[first, last)`` indices of the spans recorded during the drive.
        self.drive = (0, 0)
        #: send-to-delivery time of every delivered message, virtual units.
        self.delivery_units: list[float] = []
        #: ``(owner, attribute, original)`` for every patch installed; put
        #: back, last first, on exit.
        self.patched: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self._event_stack: list[int] = []
        self._event = 0
        self._in_transit: dict[tuple[Any, Any], deque[float]] = defaultdict(deque)
        self._node_layer: dict[Any, str] = {}
        self._subscribed: dict[Any, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # spans

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recording one span named ``name`` per call."""
        spans = self.spans
        stack = self._stack
        event_stack = self._event_stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            depth = len(stack)
            parent = stack[-1] if depth else -1
            if depth == 0:
                event = -1
            elif depth == 1:
                # A child of a drive (or set-up) call is one transport event.
                self._event += 1
                event = self._event
            else:
                event = event_stack[-1]
            stack.append(index)
            event_stack.append(event)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                event_stack.pop()
                spans[index] = (name, start, end, parent, event)

        traced.traced_layer = name  # type: ignore[attr-defined]
        return traced

    def begin_drive(self) -> None:
        self.drive = (len(self.spans), len(self.spans))

    def end_drive(self) -> None:
        self.drive = (self.drive[0], len(self.spans))

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: calls and self seconds, over the drive's spans."""
        first, last = self.drive
        spans = self.spans
        covered = [0.0] * (last - first)
        for index in range(first, last):
            _, start, end, parent, _ = spans[index]
            if parent >= first:
                covered[parent - first] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for index in range(first, last):
            name, start, end, _, _ = spans[index]
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - covered[index - first])
        return totals

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap_attribute(self, owner: Any, attribute: str, name: str) -> None:
        self._patch(owner, attribute, self.wrap(name, vars(owner)[attribute]))

    def _rebind(self, function: Callable[..., Any], name: str, skip: str = "") -> None:
        """Wrap ``function`` in every loaded ``repro`` module bound to it."""
        traced = self.wrap(name, function)
        attribute = function.__name__
        for module in list(sys.modules.values()):
            if (
                isinstance(module, ModuleType)
                and module.__name__.startswith("repro")
                and module.__name__ != skip
                and vars(module).get(attribute) is function
            ):
                self._patch(module, attribute, traced)

    def __enter__(self) -> SpanRecorder:
        from repro.basic.graph import WaitForGraph
        from repro.cluster import frames
        from repro.core import engine
        from repro.core.registry import ensure_builtin_variants
        from repro.ddb.graph import DdbWaitForGraph
        from repro.live.transport import AsyncioTransport, LiveNodeContext
        from repro.sim.network import Network
        from repro.sim.simulator import Simulator
        from repro.sim.trace import Tracer
        from repro.sim.transport import SimNodeContext, SimTransport
        from repro.workloads.spec import ensure_builtin_families

        # Load every module a rep imports, so _rebind finds all importers.
        ensure_builtin_variants()
        ensure_builtin_families()
        try:
            self._wrap_attribute(Simulator, "run", "sim.loop")
            self._wrap_attribute(AsyncioTransport, "run_to_quiescence", "live.loop")
            self._wrap_attribute(Tracer, "record", "sim.trace.fanout")
            self._wrap_send(Network, "sim.network.send")
            self._wrap_send(AsyncioTransport, "live.send")
            self._wrap_subscriptions(Tracer)
            for transport in (SimTransport, AsyncioTransport):
                self._wrap_register(transport)
                self._wrap_schedule(transport, "schedule")
                self._wrap_schedule(transport, "schedule_at")
            for context in (SimNodeContext, LiveNodeContext):
                self._wrap_set_timer(context)
            for graph, queries in (
                (WaitForGraph, ("is_on_dark_cycle", "is_on_black_cycle",
                                "find_dark_cycle", "vertices_on_dark_cycles")),
                (DdbWaitForGraph, ("is_on_dark_cycle", "is_on_black_cycle",
                                   "processes_on_dark_cycles")),
            ):
                for query in queries:
                    self._wrap_attribute(graph, query, "core.oracle")
            self._rebind(engine.dark_components, "core.dark_components")
            # encode_value/decode_value recurse through frames' own globals,
            # so only their importers are rebound: one span per top-level
            # value, none per nested one.
            self._rebind(frames.encode_value, "cluster.codec", skip=frames.__name__)
            self._rebind(frames.decode_value, "cluster.codec", skip=frames.__name__)
            self._rebind(frames.encode_frame, "cluster.frames")
            self._rebind(frames.decode_frame, "cluster.frames")
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # the individual boundaries

    def _wrap_send(self, owner: type, name: str) -> None:
        """Span the send and note its virtual time, for delivery lag."""
        traced = self.wrap(name, vars(owner)["send"])
        in_transit = self._in_transit

        def send(transport: Any, sender: Any, destination: Any, message: Any) -> Any:
            clock = getattr(transport, "simulator", transport)
            in_transit[(sender, destination)].append(clock.now)
            return traced(transport, sender, destination, message)

        self._patch(owner, "send", send)

    def _wrap_register(self, owner: type) -> None:
        """Wrap each registered process's ``on_message`` on the instance."""
        original = vars(owner)["register"]

        def register(transport: Any, process: Any) -> Any:
            context = original(transport, process)
            layer = f"{type(process).__module__.split('.')[1]}.handler"
            self._node_layer[process.pid] = layer
            process.on_message = self._handler(layer, process)
            return context

        self._patch(owner, "register", register)

    def _handler(self, layer: str, process: Any) -> Callable[[Any, Any], Any]:
        traced = self.wrap(layer, process.on_message)
        in_transit = self._in_transit
        delivered = self.delivery_units
        pid = process.pid

        def on_message(sender: Any, message: Any) -> Any:
            # Channels are FIFO (P4), so the oldest send is this message.
            pending = in_transit.get((sender, pid))
            if pending:
                delivered.append(process.now - pending.popleft())
            return traced(sender, message)

        return on_message

    def _wrap_set_timer(self, owner: type) -> None:
        """A node's timers run in its handler layer."""
        original = vars(owner)["set_timer"]

        def set_timer(context: Any, delay: float, callback: Any, name: str = "") -> Any:
            layer = self._node_layer.get(context.node_id, "other.handler")
            return original(context, delay, self.wrap(layer, callback), name)

        self._patch(owner, "set_timer", set_timer)

    def _wrap_schedule(self, owner: type, attribute: str) -> None:
        """Actions scheduled on the transport itself come from the workload."""
        original = vars(owner)[attribute]

        def schedule(transport: Any, when: float, action: Any, name: str = "") -> Any:
            if not hasattr(action, "traced_layer"):
                action = self.wrap("workloads.driver", action)
            return original(transport, when, action, name)

        self._patch(owner, attribute, schedule)

    def _wrap_subscriptions(self, tracer: type) -> None:
        """Subscribers become spans labelled by the module that defines them."""
        subscribe = vars(tracer)["subscribe"]
        unsubscribe = vars(tracer)["unsubscribe"]
        subscribed = self._subscribed

        def traced_subscribe(owner: Any, callback: Any, categories: Any = None) -> None:
            traced = self.wrap(_subscriber_layer(callback), callback)
            subscribed[callback] = traced
            subscribe(owner, traced, categories)

        def traced_unsubscribe(owner: Any, callback: Any) -> None:
            unsubscribe(owner, subscribed.pop(callback, callback))

        self._patch(tracer, "subscribe", traced_subscribe)
        self._patch(tracer, "unsubscribe", traced_unsubscribe)
