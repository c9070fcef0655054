"""Incremental span reconstruction: the streaming twin of :mod:`spans`.

:func:`repro.obs.spans.build_spans` folds a *complete* in-memory trace
after the run -- the wrong shape for the live backend and for
long-running workloads, where the full trace either does not exist
(``trace=False``) or must not be buffered.  This module rebuilds the
same :class:`~repro.obs.spans.ProbeComputationSpan` records one
:class:`~repro.sim.trace.TraceEvent` at a time, via a category-scoped
:meth:`~repro.sim.trace.Tracer.subscribe` hook, and emits each span the
moment its computation ``(i, n)`` resolves:

* **deadlock** -- the A1 declaration arrived and every probe hop of the
  tag has drained (received + net-delivered);
* **superseded** -- a later computation ``(i, n')`` of the same initiator
  appeared (section 4.3) and the old tag's hops have drained;
* **fizzled** -- assigned only at :meth:`StreamingSpanEngine.finish`,
  because "no declaration will ever come" is a quiescence-time fact.

Memory is bounded by the *open* computations, not the run length: a
settled span is evicted together with its matching queues, which is what
lets a monitor watch an unbounded run.  Settlement is deferred until the
first event of a *different* tag: probes propagate only inside the
handler that received them (A0/A2), so once a drained tag's handler has
moved on, no further event of that tag can exist.

The section 4 bounds are checked **online**: the per-edge probe count is
maintained incrementally and a breach raises (``strict_bounds=True``) or
records a :class:`~repro.errors.BoundViolation` at the offending
``probe.sent`` event -- not after the run, when the evidence has long
since scrolled past.

Equivalence with the batch fold is a hard contract (the parity suite in
``tests/obs/test_stream.py`` asserts field-for-field equality on every
registered variant): :func:`stream_spans` over a full trace returns
exactly what :func:`~repro.obs.spans.build_spans` does.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro._ids import ProbeTag
from repro.errors import BoundViolation
from repro.obs.spans import (
    BASIC_SPAN_SCHEMA,
    ProbeComputationSpan,
    ProbeHop,
    SpanOutcome,
    SpanSchema,
)
from repro.sim import categories
from repro.sim.trace import TraceEvent, Tracer

SpanSink = Callable[[ProbeComputationSpan], None]
ViolationSink = Callable[[BoundViolation], None]


def span_sort_key(span: ProbeComputationSpan) -> tuple[float, int, int]:
    """The batch folder's ordering: initiation time, initiator, sequence."""
    start = span.initiated_at if span.initiated_at is not None else span.end_time
    return (start, span.tag.initiator, span.tag.sequence)


class _OpenComputation:
    """Everything the fold holds for one open computation ``(i, n)``."""

    __slots__ = (
        "edge_counts",
        "initiator",
        "net",
        "outstanding",
        "probes",
        "receive",
        "sequence",
        "span",
    )

    def __init__(self, span: ProbeComputationSpan) -> None:
        self.span = span
        self.initiator = span.tag.initiator
        self.sequence = span.tag.sequence
        #: hops awaiting their protocol receive, FIFO per wait-for edge.
        self.receive: dict[Hashable, deque[ProbeHop]] = {}
        #: hops awaiting their net delivery, FIFO per channel
        #: ``(sender, destination)`` -- the network's P4 FIFO order.
        self.net: dict[tuple[Hashable, Hashable], deque[ProbeHop]] = {}
        #: hops still awaiting a receive or a net-delivery match; zero
        #: means no future event can belong to the tag (once its
        #: producing handler has finished).
        self.outstanding = 0
        #: sent probes per edge, and their total: the online section 4 check.
        self.edge_counts: dict[Hashable, int] = {}
        self.probes = 0


def _append(queues: dict[Any, deque[ProbeHop]], key: Any, hop: ProbeHop) -> None:
    queue = queues.get(key)
    if queue is None:
        queue = queues[key] = deque()
    queue.append(hop)


class StreamingSpanEngine:
    """Rebuild probe-computation spans from a live event stream.

    An event costs constant work however many computations are open:
    each open tag keeps one record (span, matching queues, counts) in a
    per-initiator index, eviction pops that record, and a new sequence
    re-examines only its own initiator's open computations.

    Parameters
    ----------
    schema:
        Which model's lifecycle categories to fold (same schemas as the
        batch folder).
    n_vertices:
        When given, the section 4 total bound (at most ``n(n-1)`` probes
        per computation) is checked online as well as the per-edge bound.
    strict_bounds:
        Raise the first :class:`~repro.errors.BoundViolation` out of the
        producing handler instead of only recording it.
    on_span:
        Called once per settled span, at eviction time.  Emission order
        is settlement order, **not** initiation order; sort with
        :func:`span_sort_key` for the batch folder's ordering.
    on_violation:
        Called for every recorded bound violation (also in strict mode,
        just before the raise).
    """

    def __init__(
        self,
        schema: SpanSchema = BASIC_SPAN_SCHEMA,
        *,
        n_vertices: int | None = None,
        strict_bounds: bool = False,
        on_span: SpanSink | None = None,
        on_violation: ViolationSink | None = None,
    ) -> None:
        self.schema = schema
        self.n_vertices = n_vertices
        self.strict_bounds = strict_bounds
        self.on_span = on_span
        self.on_violation = on_violation
        #: every bound violation seen so far, in event order.
        self.violations: list[BoundViolation] = []
        #: settled spans emitted so far.
        self.emitted = 0
        #: high-water mark of simultaneously open computations -- the
        #: bounded-memory claim, made testable.
        self.peak_open = 0
        self._tracer: Tracer | None = None

        #: open computations by initiator, then sequence, in the order
        #: they opened (the per-initiator index).
        self._open: dict[int, dict[int, _OpenComputation]] = {}
        self._open_count = 0
        #: highest sequence seen per initiator (section 4.3 supersession).
        self._latest: dict[int, int] = {}
        #: resolved + drained computations awaiting confirmation by the
        #: first event of a different tag (probes of a tag are only
        #: produced inside that tag's own receive handler).
        self._deferred: dict[_OpenComputation, None] = {}
        #: one handler per observed category; :meth:`attach` subscribes
        #: each to its own category, :meth:`on_event` dispatches by it.
        self._handlers: dict[str, Callable[[TraceEvent], None]] = {
            schema.initiated: self._on_initiated,
            schema.probe_sent: self._on_probe_sent,
            schema.probe_received: self._on_probe_received,
            schema.declared: self._on_declared,
            categories.NET_SENT: self._on_net_sent,
            categories.NET_DELIVERED: self._on_net_delivered,
        }

    # ------------------------------------------------------------------
    # Subscription plumbing
    # ------------------------------------------------------------------

    @property
    def categories(self) -> tuple[str, ...]:
        """The trace categories this engine must observe."""
        return tuple(self._handlers)

    @property
    def open_computations(self) -> int:
        """Computations currently held in memory (settled ones are gone)."""
        return self._open_count

    def attach(self, tracer: Tracer) -> None:
        """Subscribe to ``tracer``, one handler per category.

        The scoped subscription is the whole point: with ``trace=False``
        every category the engine does not watch stays out of the
        tracer's routes, and nothing is ever buffered in the trace log.
        """
        for category, handler in self._handlers.items():
            tracer.subscribe(handler, categories=(category,))
        self._tracer = tracer

    def detach(self, tracer: Tracer) -> None:
        for handler in self._handlers.values():
            tracer.unsubscribe(handler)
        self._tracer = None

    def on_event(self, event: TraceEvent) -> None:
        """Consume one trace event of any category (others are ignored)."""
        handler = self._handlers.get(event.category)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # The incremental fold
    # ------------------------------------------------------------------

    def _record(self, tag: ProbeTag, time: float) -> _OpenComputation:
        """The open record of ``tag``, opened on its first event."""
        initiator = tag.initiator
        records = self._open.get(initiator)
        if records is None:
            records = self._open[initiator] = {}
        record = records.get(tag.sequence)
        if record is None:
            record = _OpenComputation(
                ProbeComputationSpan(
                    tag=tag, initiator=initiator, initiated_at=None, end_time=time
                )
            )
            records[tag.sequence] = record
            self._open_count += 1
            if self._open_count > self.peak_open:
                self.peak_open = self._open_count
            latest = self._latest.get(initiator)
            if latest is None or tag.sequence > latest:
                self._latest[initiator] = tag.sequence
                # A new latest sequence may resolve the initiator's older
                # computations; re-examine them, and only them.
                for older in records.values():
                    if older.sequence < tag.sequence:
                        self._try_settle(older)
        elif time > record.span.end_time:
            record.span.end_time = time
        return record

    def _on_initiated(self, event: TraceEvent) -> None:
        tag = event.details["tag"]
        if not isinstance(tag, ProbeTag):
            return
        if self._deferred:
            self._flush_deferred(tag)
        span = self._record(tag, event.time).span
        if span.initiated_at is None:
            span.initiated_at = event.time

    def _on_probe_sent(self, event: TraceEvent) -> None:
        details = event.details
        tag = details["tag"]
        if not isinstance(tag, ProbeTag):
            return
        if self._deferred:
            self._flush_deferred(tag)
        time = event.time
        record = self._record(tag, time)
        schema = self.schema
        sender, destination = schema.sent_endpoints(details)
        edge = schema.edge_of(details)
        hop = ProbeHop(
            tag=tag, source=sender, target=destination, edge=edge, sent_at=time
        )
        record.span.hops.append(hop)
        _append(record.receive, edge, hop)
        _append(record.net, (sender, destination), hop)
        record.outstanding += 2
        # Online section 4 bounds.
        counts = record.edge_counts
        count = counts.get(edge, 0) + 1
        counts[edge] = count
        if count == 2:
            self._violate(
                BoundViolation(
                    "one-probe-per-edge",
                    f"computation {tag} sent a second probe over edge "
                    f"{edge!r} at t={time} (section 4 allows exactly one)",
                )
            )
        record.probes += 1
        n = self.n_vertices
        if n is not None and record.probes == n * (n - 1) + 1:
            self._violate(
                BoundViolation(
                    "probes-le-edges",
                    f"computation {tag} exceeded the {n * (n - 1)} possible "
                    f"wait-for edges among {n} vertices at t={time}",
                )
            )

    def _on_probe_received(self, event: TraceEvent) -> None:
        details = event.details
        tag = details["tag"]
        if not isinstance(tag, ProbeTag):
            return
        if self._deferred:
            self._flush_deferred(tag)
        record = self._record(tag, event.time)
        edge = self.schema.edge_of(details)
        pending = record.receive.get(edge)
        if pending:
            hop = pending.popleft()
            if not pending:
                del record.receive[edge]
            record.outstanding -= 1
        else:
            # Sliced trace: the matching send was not recorded.
            source_pid: Hashable = details.get("source")
            target_pid: Hashable = details.get("target", details.get("site"))
            hop = ProbeHop(tag=tag, source=source_pid, target=target_pid, edge=edge)
            record.span.hops.append(hop)
        hop.received_at = event.time
        meaningful = details.get("meaningful")
        hop.meaningful = bool(meaningful) if meaningful is not None else None
        self._try_settle(record)

    def _on_declared(self, event: TraceEvent) -> None:
        tag = event.details["tag"]
        if not isinstance(tag, ProbeTag):
            return
        if self._deferred:
            self._flush_deferred(tag)
        record = self._record(tag, event.time)
        span = record.span
        if span.declared_at is None:
            span.declared_at = event.time
            span.declared_by = self.schema.declared_by(event.details)
        self._try_settle(record)

    def _net_pending(
        self, event: TraceEvent
    ) -> tuple[_OpenComputation, tuple[Hashable, Hashable], deque[ProbeHop]] | None:
        """The open record, channel and hop queue a ``net.*`` event matches."""
        details = event.details
        tag = getattr(details.get("message"), "tag", None)
        if not isinstance(tag, ProbeTag):
            return None
        if self._deferred:
            self._flush_deferred(tag)
        records = self._open.get(tag.initiator)
        record = None if records is None else records.get(tag.sequence)
        if record is None:
            return None
        channel = (details["sender"], details["destination"])
        pending = record.net.get(channel)
        if not pending:
            return None
        return record, channel, pending

    def _on_net_sent(self, event: TraceEvent) -> None:
        matched = self._net_pending(event)
        if matched is None:
            return
        record, _, pending = matched
        # First hop in the queue that has no net-accept time yet.
        for hop in pending:
            if hop.net_sent_at is None:
                hop.net_sent_at = event.time
                if event.time > record.span.end_time:
                    record.span.end_time = event.time
                break

    def _on_net_delivered(self, event: TraceEvent) -> None:
        matched = self._net_pending(event)
        if matched is None:
            return
        record, channel, pending = matched
        hop = pending.popleft()
        if not pending:
            del record.net[channel]
        hop.net_delivered_at = event.time
        if event.time > record.span.end_time:
            record.span.end_time = event.time
        record.outstanding -= 1
        self._try_settle(record)

    def _violate(self, violation: BoundViolation) -> None:
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.strict_bounds:
            raise violation

    # ------------------------------------------------------------------
    # Settlement & eviction
    # ------------------------------------------------------------------

    def _resolution(self, record: _OpenComputation) -> SpanOutcome | None:
        """The outcome already determined for ``record``, if any.

        FIZZLED is never determined mid-stream: only quiescence proves
        the absence of a future declaration.
        """
        if record.span.declared_at is not None:
            return SpanOutcome.DEADLOCK
        if record.sequence < self._latest[record.initiator]:
            return SpanOutcome.SUPERSEDED
        return None

    def _try_settle(self, record: _OpenComputation) -> None:
        if record.outstanding == 0 and self._resolution(record) is not None:
            self._deferred[record] = None

    def _flush_deferred(self, current: ProbeTag) -> None:
        """Evict deferred computations once an event of a *different* tag
        proves their producing handlers have completed."""
        for record in list(self._deferred):
            if record.sequence == current.sequence and record.initiator == current.initiator:
                continue
            del self._deferred[record]
            if record.outstanding > 0:
                continue
            outcome = self._resolution(record)
            if outcome is not None:
                self._evict(record, outcome)

    def _evict(self, record: _OpenComputation, outcome: SpanOutcome) -> None:
        del self._open[record.initiator][record.sequence]
        self._open_count -= 1
        span = record.span
        span.outcome = outcome
        self.emitted += 1
        tracer = self._tracer
        if tracer is not None and tracer.wants(categories.OBS_SPAN_SETTLED):
            tracer.record(
                span.end_time,
                categories.OBS_SPAN_SETTLED,
                tag=span.tag,
                outcome=outcome.value,
                probes_sent=span.probes_sent,
                detection_latency=span.detection_latency,
            )
        if self.on_span is not None:
            self.on_span(span)

    def finish(self) -> list[ProbeComputationSpan]:
        """Flush every remaining computation at end of stream.

        Undetermined spans become FIZZLED (or SUPERSEDED when a later
        sequence exists), exactly like the batch folder's quiescence-time
        outcome pass.  Returns the spans emitted *by this call*, in the
        batch folder's sort order; spans already emitted mid-stream are
        not repeated.
        """
        self._deferred.clear()
        remaining = sorted(
            (record for records in self._open.values() for record in records.values()),
            key=lambda record: span_sort_key(record.span),
        )
        for record in remaining:
            outcome = self._resolution(record)
            self._evict(record, SpanOutcome.FIZZLED if outcome is None else outcome)
        return [record.span for record in remaining]


def span_to_json(span: ProbeComputationSpan) -> dict[str, Any]:
    """A compact JSON-able view of one span, for streamed JSONL export.

    Deliberately simpler than the lossless trace round-trip of
    :mod:`repro.obs.export`: ids are stringified, derived quantities are
    precomputed -- the shape a dashboard or ``jq`` wants, not a decoder.
    """
    return {
        "tag": str(span.tag),
        "initiator": span.initiator,
        "sequence": span.tag.sequence,
        "initiated_at": span.initiated_at,
        "declared_at": span.declared_at,
        "declared_by": None if span.declared_by is None else str(span.declared_by),
        "outcome": span.outcome.value,
        "end_time": span.end_time,
        "probes_sent": span.probes_sent,
        "meaningful_probes": span.meaningful_probes,
        "detection_latency": span.detection_latency,
        "hops": [
            {
                "source": str(hop.source),
                "target": str(hop.target),
                "edge": str(hop.edge),
                "sent_at": hop.sent_at,
                "net_sent_at": hop.net_sent_at,
                "net_delivered_at": hop.net_delivered_at,
                "received_at": hop.received_at,
                "meaningful": hop.meaningful,
            }
            for hop in span.hops
        ],
    }


def stream_spans(
    source: Tracer | Iterable[TraceEvent],
    schema: SpanSchema = BASIC_SPAN_SCHEMA,
    *,
    n_vertices: int | None = None,
    strict_bounds: bool = False,
) -> list[ProbeComputationSpan]:
    """Run the incremental engine over a complete event stream.

    Returns spans in the batch folder's order -- on a full trace the
    result is field-for-field identical to
    :func:`repro.obs.spans.build_spans` (the parity contract).
    """
    collected: list[ProbeComputationSpan] = []
    engine = StreamingSpanEngine(
        schema,
        n_vertices=n_vertices,
        strict_bounds=strict_bounds,
        on_span=collected.append,
    )
    for event in source:
        engine.on_event(event)
    engine.finish()
    return sorted(collected, key=span_sort_key)
