"""Structured trace recording.

Traces are the evidence the verification layer works from: every protocol
action (request sent, edge blackened, probe received, deadlock declared, ...)
is recorded as a :class:`TraceEvent` with the virtual time and a payload
dict.  Tests replay traces to check temporal claims such as QRP2's "on a
black cycle *at the time the probe is received*".

Fan-out is routed: :attr:`Tracer.routes` maps each category somebody reads
to the tuple of subscribers it reaches, wildcards first.  The table is
rebuilt on every subscribe, unsubscribe and ``enabled`` flip, never per
record.  Producers test ``category in tracer.routes`` before they call
:meth:`Tracer.record`, so a category nobody reads costs one membership
test: no :class:`TraceEvent`, no call.  That is what lets big sweeps run
with ``trace=False`` while on-line observers still watch the handful of
categories they care about.

Sends and deliveries take a positional channel instead:
:meth:`Tracer.observe_messages` attaches callbacks that the transports
call as ``(time, sender, destination, message)``, from the tuples
:attr:`Tracer.sent_observers` and :attr:`Tracer.delivered_observers`,
which are rebuilt with the routes.  A ``net.*`` :class:`TraceEvent` is
built only while that category is routed (the log, a wildcard or a
``net.*`` subscriber); the tuple then starts with the tracer's own
adapter, which records it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.sim import categories as _categories

Subscriber = Callable[["TraceEvent"], None]
#: a send or delivery, as ``(time, sender, destination, message)``.
MessageObserver = Callable[[float, Hashable, Hashable, Any], None]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence.

    ``category`` is a dotted name such as ``"basic.probe.received"`` or
    ``"ddb.deadlock.declared"``; ``details`` carries event-specific fields.
    """

    time: float
    category: str
    details: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.details[key]


# Tracer.record builds each TraceEvent without the dataclass ``__init__``,
# which sets every field through ``object.__setattr__`` (how a frozen
# dataclass gets past its own ``__setattr__``) at about three times the
# cost of a plain build.  The slot descriptors set the fields directly;
# the event stays frozen to everyone else.
_set_time: Callable[[TraceEvent, float], None] = vars(TraceEvent)["time"].__set__
_set_category: Callable[[TraceEvent, str], None] = vars(TraceEvent)["category"].__set__
_set_details: Callable[[TraceEvent, dict[str, Any]], None] = vars(TraceEvent)[
    "details"
].__set__

Routes = dict[str, tuple[Subscriber, ...]]


class _Broadcast(Routes):
    """A route table that routes every category.

    In force while the log is on or a wildcard subscriber is attached:
    every record is then read by someone.  A category with scoped
    subscribers maps to the wildcards plus those; any other category
    reaches the wildcards alone.
    """

    __slots__ = ("_wildcards",)

    def __init__(self, routes: Routes, wildcards: tuple[Subscriber, ...]) -> None:
        super().__init__(routes)
        self._wildcards = wildcards

    def __contains__(self, category: object) -> bool:
        return True

    def __missing__(self, category: str) -> tuple[Subscriber, ...]:
        return self._wildcards


class Tracer:
    """Append-only trace log with category-routed fan-out.

    Recording can be disabled (``enabled=False``) for large benchmark runs
    where only metrics matter.  Subscribers registered with
    :meth:`subscribe` are invoked synchronously on every matching recorded
    event and are how the on-line invariant checkers hook into a running
    simulation.

    :attr:`routes` is the precomputed dispatch table: category -> tuple of
    subscribers, wildcard subscribers first, then the category's scoped
    ones in subscription order.  A category is in the table exactly when
    recording it would log it or reach a subscriber.  Subscribe,
    unsubscribe and every ``enabled`` flip rebuild it; :meth:`record`
    only reads it.  Read it, never write it.

    :attr:`sent_observers` and :attr:`delivered_observers` are the
    message channel's dispatch tuples, rebuilt together with
    :attr:`routes` (and on :meth:`observe_messages` and
    :meth:`unobserve_messages`).  A transport calls each entry as
    ``observer(time, sender, destination, message)`` for every send and
    delivery, iterating the tuple it read when the dispatch started.
    While ``net.sent`` (``net.delivered``) is routed, its tuple starts
    with an adapter that records the ``net.*`` :class:`TraceEvent`.
    """

    __slots__ = (
        "_by_category",
        "_delivered",
        "_enabled",
        "_events",
        "_sent",
        "_wildcards",
        "delivered_observers",
        "routes",
        "sent_observers",
    )

    routes: Routes
    sent_observers: tuple[MessageObserver, ...]
    delivered_observers: tuple[MessageObserver, ...]

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._events: list[TraceEvent] = []
        #: wildcard subscribers: see every recorded event.
        self._wildcards: list[Subscriber] = []
        #: category-scoped subscribers: see only their categories' events.
        self._by_category: dict[str, list[Subscriber]] = {}
        #: message observers: see every send / every delivery.
        self._sent: list[MessageObserver] = []
        self._delivered: list[MessageObserver] = []
        self._rebuild_routes()

    @property
    def enabled(self) -> bool:
        """Whether events are appended to the in-memory log."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._rebuild_routes()

    @property
    def idle(self) -> bool:
        """True when no recorded event could reach anyone and no message
        observer is attached."""
        return not (
            self._enabled
            or self._wildcards
            or self._by_category
            or self._sent
            or self._delivered
        )

    def _rebuild_routes(self) -> None:
        """Recompute :attr:`routes` and the message observer tuples.

        New tables replace the old ones, so a :meth:`record` or a message
        dispatch already running keeps the tuple it started with.
        """
        wildcards = tuple(self._wildcards)
        routes = {
            category: wildcards + tuple(scoped)
            for category, scoped in self._by_category.items()
        }
        if self._enabled or wildcards:
            routes = _Broadcast(routes, wildcards)
        self.routes = routes
        sent = tuple(self._sent)
        if _categories.NET_SENT in routes:
            sent = (self._record_sent, *sent)
        delivered = tuple(self._delivered)
        if _categories.NET_DELIVERED in routes:
            delivered = (self._record_delivered, *delivered)
        self.sent_observers = sent
        self.delivered_observers = delivered

    def _record_sent(
        self, time: float, sender: Hashable, destination: Hashable, message: Any
    ) -> None:
        self.record(
            time,
            _categories.NET_SENT,
            sender=sender,
            destination=destination,
            message=message,
        )

    def _record_delivered(
        self, time: float, sender: Hashable, destination: Hashable, message: Any
    ) -> None:
        self.record(
            time,
            _categories.NET_DELIVERED,
            sender=sender,
            destination=destination,
            message=message,
        )

    def wants(self, category: str) -> bool:
        """True when recording ``category`` now would reach anyone.

        Call sites with expensive payloads use this to skip building the
        payload and the :meth:`record` call on categories nobody reads.
        """
        return category in self.routes

    def record(self, time: float, category: str, **details: Any) -> None:
        """Record one event: log it if enabled, then call its subscribers.

        A category not in :attr:`routes` returns at once.  The subscribers
        are those routed when the call starts: one that subscribes or
        unsubscribes during the dispatch takes effect from the next record.
        """
        routes = self.routes
        if category not in routes:
            return
        event = TraceEvent.__new__(TraceEvent)
        _set_time(event, time)
        _set_category(event, category)
        _set_details(event, details)
        if self._enabled:
            self._events.append(event)
        for subscriber in routes[category]:
            subscriber(event)

    def subscribe(
        self, callback: Subscriber, categories: Iterable[str] | None = None
    ) -> None:
        """Invoke ``callback`` synchronously for every future matching event.

        With ``categories=None`` (the default) the callback sees every
        event.  Passing an iterable of category names scopes the callback
        to exactly those categories; all *other* categories then stay
        unrouted when recording is disabled.  A subscription made while a
        record is dispatching takes effect from the next record.
        """
        if categories is None:
            self._wildcards.append(callback)
            self._rebuild_routes()
            return
        names = tuple(categories)
        if not names:
            raise ValueError("categories must be None (wildcard) or non-empty")
        for name in names:
            self._by_category.setdefault(name, []).append(callback)
        self._rebuild_routes()

    def unsubscribe(self, callback: Subscriber) -> None:
        """Detach a subscriber registered with :meth:`subscribe`.

        Removes one wildcard registration if present; otherwise removes the
        callback from every category list it appears in (one occurrence
        each), i.e. one ``subscribe(cb, categories=...)`` call is undone by
        one ``unsubscribe(cb)``.  Raises :class:`ValueError` if ``callback``
        is not currently subscribed -- a silent no-op here would hide
        double-detach bugs in invariant checkers.  Unsubscribing while a
        record is dispatching takes effect from the next record: the
        current one still reaches every subscriber it was routed to.
        """
        try:
            self._wildcards.remove(callback)
            self._rebuild_routes()
            return
        except ValueError:
            pass
        removed = False
        for name in list(self._by_category):
            listeners = self._by_category[name]
            try:
                listeners.remove(callback)
                removed = True
            except ValueError:
                continue
            if not listeners:
                del self._by_category[name]
        if not removed:
            raise ValueError(f"callback {callback!r} is not subscribed to this tracer")
        self._rebuild_routes()

    def observe_messages(
        self,
        on_sent: MessageObserver | None = None,
        on_delivered: MessageObserver | None = None,
    ) -> None:
        """Call ``on_sent`` for every send and ``on_delivered`` for every
        delivery, as ``(time, sender, destination, message)``.

        Observers run after the ``net.*`` record, if any, in the order
        they were attached.  One attached while a message is dispatching
        takes effect from the next message.
        """
        if on_sent is None and on_delivered is None:
            raise ValueError("observe_messages needs on_sent or on_delivered")
        if on_sent is not None:
            self._sent.append(on_sent)
        if on_delivered is not None:
            self._delivered.append(on_delivered)
        self._rebuild_routes()

    def unobserve_messages(
        self,
        on_sent: MessageObserver | None = None,
        on_delivered: MessageObserver | None = None,
    ) -> None:
        """Detach observers attached with :meth:`observe_messages`.

        Raises :class:`ValueError`, detaching nothing, when a given
        callback is not attached, as :meth:`unsubscribe` does.  A message
        already dispatching still reaches it.
        """
        attached = (
            (on_sent is not None or on_delivered is not None)
            and (on_sent is None or on_sent in self._sent)
            and (on_delivered is None or on_delivered in self._delivered)
        )
        if not attached:
            raise ValueError(
                f"observers {on_sent!r}, {on_delivered!r} are not attached to this tracer"
            )
        if on_sent is not None:
            self._sent.remove(on_sent)
        if on_delivered is not None:
            self._delivered.remove(on_delivered)
        self._rebuild_routes()

    @contextmanager
    def subscribed(
        self, callback: Subscriber, categories: Iterable[str] | None = None
    ) -> Iterator[None]:
        """Context manager: subscribe ``callback`` for the ``with`` body only.

        Span builders and invariant checkers use this to observe one bounded
        run without leaking a subscription into later phases::

            with tracer.subscribed(collector.on_event):
                system.run_to_quiescence()
        """
        self.subscribe(callback, categories=categories)
        try:
            yield
        finally:
            self.unsubscribe(callback)

    def events(self, category: str | None = None) -> list[TraceEvent]:
        """All events, or those whose category matches exactly."""
        if category is None:
            return list(self._events)
        return [event for event in self._events if event.category == category]

    def events_with_prefix(self, prefix: str) -> list[TraceEvent]:
        """All events whose category starts with ``prefix``."""
        return [event for event in self._events if event.category.startswith(prefix)]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
