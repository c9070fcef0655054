"""Reconstruct probe computations ``(i, n)`` as spans from a flat trace.

One probe computation is the unit of everything the paper proves: QRP2's
"on a black cycle at the moment the meaningful probe is received" is a
statement about one computation's final hop, and section 4's performance
argument bounds the probes **per computation** -- at most one per edge,
hence at most ``|E|`` in total and ``N`` on a simple cycle of ``N``
vertices.  A flat :class:`~repro.sim.trace.TraceEvent` list interleaves
all computations; this module folds it back into one
:class:`ProbeComputationSpan` per tag ``(initiator, n)``:

* the initiation instant (step A0),
* every probe **hop** with its latency split (protocol send -> network
  accept -> delivery -> protocol receive) and meaningfulness verdict,
* the outcome -- deadlock declared (A1 fired), fizzled (probes discarded
  or still travelling at quiescence), or superseded by a later computation
  of the same initiator (section 4.3),
* per-edge probe accounting, machine-checked by :func:`check_probe_bounds`.

The fold is schema-driven so the same machinery serves the basic model
(vertex probes) and the DDB model (controller probes); see
:data:`BASIC_SPAN_SCHEMA` and :data:`DDB_SPAN_SCHEMA`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any

from repro._ids import ProbeTag
from repro.core.registry import MessageTaxonomy, all_variants
from repro.errors import BoundViolation
from repro.sim import categories
from repro.sim.trace import TraceEvent, Tracer


class SpanOutcome(Enum):
    """How a probe computation ended."""

    #: Step A1 fired: the initiator received a meaningful probe of its own
    #: computation and declared itself on a black cycle.
    DEADLOCK = "deadlock"
    #: The computation produced no declaration: its probes were discarded as
    #: not meaningful / stale, or were still in flight when the run ended.
    FIZZLED = "fizzled"
    #: A later computation ``(i, n')`` with ``n' > n`` by the same initiator
    #: exists, which makes this one obsolete (section 4.3).
    SUPERSEDED = "superseded"


#: what a :class:`SpanSchema` extractor reads: one event's ``details``.
Details = Mapping[str, Any]


@dataclass(frozen=True)
class SpanSchema:
    """How to read one model's probe lifecycle out of its trace categories.

    The extractor callables isolate the fold from per-model detail-key
    differences (the basic model records ``source``/``target`` vertices,
    the DDB model records ``site``/``destination``/``edge``).  Each takes
    an event's ``details``, not the event.
    """

    model: str
    initiated: str
    probe_sent: str
    probe_received: str
    declared: str
    #: network pids ``(sender, destination)`` of a probe-sent event; used
    #: both as hop endpoints and to match ``net.sent``/``net.delivered``.
    sent_endpoints: Callable[[Details], tuple[Hashable, Hashable]]
    #: canonical wait-for-graph edge label of a sent/received probe event;
    #: the section 4 bound counts probes per *this* label.
    edge_of: Callable[[Details], Hashable]
    #: who declared (step A1): the vertex in the basic model, the victim
    #: process in the DDB model.
    declared_by: Callable[[Details], object]


def schema_from_taxonomy(model: str, taxonomy: MessageTaxonomy) -> SpanSchema:
    """Derive a fold schema from a registered variant's message taxonomy.

    The taxonomy names the lifecycle categories and the detail keys; this
    turns the keys into the extractor callables the fold runs, each an
    :func:`operator.itemgetter` over the event's details.  A single edge
    key reads that detail verbatim (the DDB model records a canonical
    ``edge`` label); several keys form a tuple label (the basic model's
    ``(source, target)``).
    """
    return SpanSchema(
        model=model,
        initiated=taxonomy.initiated,
        probe_sent=taxonomy.probe_sent,
        probe_received=taxonomy.probe_received,
        declared=taxonomy.declared,
        sent_endpoints=itemgetter(*taxonomy.endpoint_keys),
        edge_of=itemgetter(*taxonomy.edge_keys),
        declared_by=itemgetter(taxonomy.declared_by_key),
    )


def _registered_schemas() -> dict[str, SpanSchema]:
    """One schema per registered variant model that declares a taxonomy.

    Built exactly once at import: ``SpanSchema`` equality falls back to
    the identity of its extractors, so every consumer must share
    these instances rather than re-deriving their own.
    """
    schemas: dict[str, SpanSchema] = {}
    for variant in all_variants():
        taxonomy = variant.capabilities.taxonomy
        if taxonomy is None or variant.capabilities.model in schemas:
            continue
        schemas[variant.capabilities.model] = schema_from_taxonomy(
            variant.capabilities.model, taxonomy
        )
    return schemas


SCHEMAS_BY_MODEL: dict[str, SpanSchema] = _registered_schemas()

BASIC_SPAN_SCHEMA = SCHEMAS_BY_MODEL["basic"]

DDB_SPAN_SCHEMA = SCHEMAS_BY_MODEL["ddb"]


@dataclass
class ProbeHop:
    """One probe travelling one edge within one computation.

    The four timestamps split the hop's latency the way the transport
    experiences it: ``sent_at`` (protocol-level send, step A0/A2) ->
    ``net_sent_at`` (network accepted the message) -> ``net_delivered_at``
    (delivery event fired) -> ``received_at`` (protocol-level receipt).
    ``queue_delay`` is time spent between protocol send and network accept,
    ``flight_delay`` the in-flight time on the channel.  Any timestamp may
    be ``None`` on a sliced trace or for probes still in flight.
    """

    tag: ProbeTag
    source: Hashable
    target: Hashable
    edge: Hashable
    sent_at: float | None = None
    net_sent_at: float | None = None
    net_delivered_at: float | None = None
    received_at: float | None = None
    #: P3 verdict at receipt: was the edge (source -> target) black?  None
    #: while the probe is still in flight.
    meaningful: bool | None = None

    @property
    def latency(self) -> float | None:
        """End-to-end protocol latency of the hop, when both ends were seen."""
        if self.sent_at is None or self.received_at is None:
            return None
        return self.received_at - self.sent_at

    @property
    def queue_delay(self) -> float | None:
        if self.sent_at is None or self.net_sent_at is None:
            return None
        return self.net_sent_at - self.sent_at

    @property
    def flight_delay(self) -> float | None:
        if self.net_sent_at is None or self.net_delivered_at is None:
            return None
        return self.net_delivered_at - self.net_sent_at

    @property
    def delivered(self) -> bool:
        return self.received_at is not None


@dataclass
class ProbeComputationSpan:
    """One probe computation ``(i, n)``, end to end."""

    tag: ProbeTag
    initiator: int
    initiated_at: float | None
    hops: list[ProbeHop] = field(default_factory=list)
    declared_at: float | None = None
    declared_by: object | None = None
    outcome: SpanOutcome = SpanOutcome.FIZZLED
    #: time of the last event attributed to this computation
    end_time: float = 0.0

    @property
    def detection_latency(self) -> float | None:
        """Initiation-to-declaration latency (the E5 'detection latency'
        measured per computation), or None if A1 never fired."""
        if self.initiated_at is None or self.declared_at is None:
            return None
        return self.declared_at - self.initiated_at

    @property
    def probes_sent(self) -> int:
        return sum(1 for hop in self.hops if hop.sent_at is not None)

    @property
    def meaningful_probes(self) -> int:
        return sum(1 for hop in self.hops if hop.meaningful)

    def probes_per_edge(self) -> dict[Hashable, int]:
        """Sent-probe count per wait-for-graph edge (section 4 accounting)."""
        counts: dict[Hashable, int] = {}
        for hop in self.hops:
            if hop.sent_at is not None:
                counts[hop.edge] = counts.get(hop.edge, 0) + 1
        return counts

    @property
    def max_probes_on_one_edge(self) -> int:
        counts = self.probes_per_edge()
        return max(counts.values()) if counts else 0

    def check_bounds(self, n_vertices: int | None = None) -> None:
        """Machine-check the section 4 bounds for this one computation.

        * **one probe per edge**: a vertex propagates at most once per
          computation, so no edge may carry two probes of the same tag;
        * with ``n_vertices`` given, **at most |E| probes overall**, where
          ``|E| <= n(n-1)`` for the simple wait-for digraph (on a simple
          cycle this specialises to the paper's "at most N probes").

        Raises :class:`~repro.errors.BoundViolation` on the first breach.
        """
        for edge, count in sorted(
            self.probes_per_edge().items(), key=lambda item: str(item[0])
        ):
            if count > 1:
                raise BoundViolation(
                    "one-probe-per-edge",
                    f"computation {self.tag} sent {count} probes over edge "
                    f"{edge!r} (section 4 allows exactly one)",
                )
        if n_vertices is not None:
            limit = n_vertices * (n_vertices - 1)
            if self.probes_sent > limit:
                raise BoundViolation(
                    "probes-le-edges",
                    f"computation {self.tag} sent {self.probes_sent} probes, "
                    f"more than the {limit} possible wait-for edges among "
                    f"{n_vertices} vertices",
                )


def check_probe_bounds(
    spans: Iterable[ProbeComputationSpan], n_vertices: int | None = None
) -> None:
    """Run :meth:`ProbeComputationSpan.check_bounds` over every span."""
    for span in spans:
        span.check_bounds(n_vertices=n_vertices)


def _tag_of(value: Any) -> ProbeTag | None:
    return value if isinstance(value, ProbeTag) else None


def build_spans(
    source: Tracer | Iterable[TraceEvent],
    schema: SpanSchema = BASIC_SPAN_SCHEMA,
) -> list[ProbeComputationSpan]:
    """Fold a trace into one span per probe computation tag.

    ``source`` is a live :class:`~repro.sim.trace.Tracer` or any iterable
    of events (e.g. re-imported via :func:`repro.obs.export.read_jsonl`).
    Events of other categories are ignored, so the full mixed trace of a
    run can be passed as-is.  Spans come back ordered by initiation time.
    """
    spans: dict[ProbeTag, ProbeComputationSpan] = {}
    # FIFO queues of hops awaiting their receive / net events, keyed by
    # (tag, edge) and (tag, sender, destination) respectively.  FIFO per
    # key mirrors the network's per-channel FIFO guarantee.
    awaiting_receive: dict[tuple[ProbeTag, Hashable], deque[ProbeHop]] = {}
    awaiting_net: dict[tuple[ProbeTag, Hashable, Hashable], deque[ProbeHop]] = {}

    def span_for(tag: ProbeTag, time: float) -> ProbeComputationSpan:
        span = spans.get(tag)
        if span is None:
            span = ProbeComputationSpan(
                tag=tag, initiator=tag.initiator, initiated_at=None, end_time=time
            )
            spans[tag] = span
        span.end_time = max(span.end_time, time)
        return span

    for event in source:
        category = event.category
        if category == schema.initiated:
            tag = _tag_of(event["tag"])
            if tag is None:
                continue
            span = span_for(tag, event.time)
            if span.initiated_at is None:
                span.initiated_at = event.time
        elif category == schema.probe_sent:
            tag = _tag_of(event["tag"])
            if tag is None:
                continue
            span = span_for(tag, event.time)
            sender, destination = schema.sent_endpoints(event.details)
            hop = ProbeHop(
                tag=tag,
                source=sender,
                target=destination,
                edge=schema.edge_of(event.details),
                sent_at=event.time,
            )
            span.hops.append(hop)
            awaiting_receive.setdefault((tag, hop.edge), deque()).append(hop)
            awaiting_net.setdefault((tag, sender, destination), deque()).append(hop)
        elif category == schema.probe_received:
            tag = _tag_of(event["tag"])
            if tag is None:
                continue
            span = span_for(tag, event.time)
            edge = schema.edge_of(event.details)
            pending = awaiting_receive.get((tag, edge))
            if pending:
                hop = pending.popleft()
            else:
                # Sliced trace: the matching send was not recorded.
                source_pid: Hashable = event.details.get("source")
                target_pid: Hashable = event.details.get(
                    "target", event.details.get("site")
                )
                hop = ProbeHop(
                    tag=tag, source=source_pid, target=target_pid, edge=edge
                )
                span.hops.append(hop)
            hop.received_at = event.time
            meaningful = event.details.get("meaningful")
            hop.meaningful = bool(meaningful) if meaningful is not None else None
        elif category == schema.declared:
            tag = _tag_of(event["tag"])
            if tag is None:
                continue
            span = span_for(tag, event.time)
            if span.declared_at is None:
                span.declared_at = event.time
                span.declared_by = schema.declared_by(event.details)
        elif category in (categories.NET_SENT, categories.NET_DELIVERED):
            message = event.details.get("message")
            tag = _tag_of(getattr(message, "tag", None))
            if tag is None:
                continue
            key = (tag, event["sender"], event["destination"])
            pending = awaiting_net.get(key)
            if not pending:
                continue
            if category == categories.NET_SENT:
                # First hop in the queue that has no net-accept time yet.
                for hop in pending:
                    if hop.net_sent_at is None:
                        hop.net_sent_at = event.time
                        span_for(tag, event.time)
                        break
            else:
                hop = pending[0]
                hop.net_delivered_at = event.time
                pending.popleft()
                span_for(tag, event.time)

    superseded: dict[int, int] = {}
    for tag in spans:
        latest = superseded.get(tag.initiator)
        if latest is None or tag.sequence > latest:
            superseded[tag.initiator] = tag.sequence
    for tag, span in spans.items():
        if span.declared_at is not None:
            span.outcome = SpanOutcome.DEADLOCK
        elif tag.sequence < superseded[tag.initiator]:
            span.outcome = SpanOutcome.SUPERSEDED
        else:
            span.outcome = SpanOutcome.FIZZLED

    def sort_key(span: ProbeComputationSpan) -> tuple[float, int, int]:
        start = span.initiated_at if span.initiated_at is not None else span.end_time
        return (start, span.tag.initiator, span.tag.sequence)

    return sorted(spans.values(), key=sort_key)
