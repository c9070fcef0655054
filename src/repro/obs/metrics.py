"""Transport-neutral live metrics: labelled families + Prometheus text.

The simulator's :class:`~repro.sim.metrics.MetricsRegistry` is built for
post-run accounting -- exact quantiles, unbounded value lists, no labels.
A *live* monitor needs the opposite trade: bounded-memory aggregates
(bucketed histograms, high-water gauges) addressable by label sets and
exportable in the Prometheus text format.  This module provides that
layer, plus :class:`TransportTelemetry` -- the bridge that populates it
from any :class:`~repro.core.transport.Transport` backend through a
category-scoped tracer subscription, so the same wiring observes the
deterministic simulator and the live asyncio runtime.

Everything here is stamped with **virtual** time (the transport's clock);
per lint rule RPX002 this module never reads the wall clock, which keeps
sim-backed telemetry deterministic and replayable.

Metric families follow Prometheus conventions: ``*_total`` counters,
``*_units`` for virtual-time durations (they are not seconds), histogram
exposition as cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count``.  DESIGN.md carries the table mapping each exported family to
its paper quantity.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import BoundViolation, ConfigurationError
from repro.obs.spans import SCHEMAS_BY_MODEL, ProbeComputationSpan, SpanSchema
from repro.obs.stream import SpanSink, StreamingSpanEngine
from repro.sim import categories
from repro.sim.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import VariantCapabilities
    from repro.core.transport import Transport

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default histogram buckets, in virtual time units.  Conformance-scale
#: runs live in single digits; big grids reach a few hundred units.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class CounterMetric:
    """One monotone series within a counter family."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters cannot decrease (amount={amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeMetric:
    """One level series: current value plus high-water bookkeeping.

    ``max`` and ``observations`` exist for samplers (the simulator
    profiler reuses this as its queue-depth primitive): every ``set``
    counts as one observation and ratchets the high-water mark.
    """

    __slots__ = ("_max", "_observations", "_value")

    def __init__(self) -> None:
        self._value = 0.0
        self._max = 0.0
        self._observations = 0

    def set(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("gauges cannot be set to NaN")
        self._value = value
        if value > self._max:
            self._max = value
        self._observations += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        """Highest value ever set (high-water mark)."""
        return self._max

    @property
    def observations(self) -> int:
        """Number of ``set``/``inc``/``dec`` calls so far."""
        return self._observations


class HistogramMetric:
    """One bucketed distribution series (bounded memory, any run length)."""

    __slots__ = ("_bucket_counts", "_buckets", "_count", "_sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._buckets = tuple(buckets)
        #: observations per bucket, not cumulative: slot ``i`` counts the
        #: values in ``(bound[i-1], bound[i]]``, the last slot those above
        #: every bound.
        self._bucket_counts = [0] * (len(self._buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("histograms cannot observe NaN")
        self._sum += value
        self._count += 1
        # bisect_left: a value equal to a bound belongs to it (``le``).
        self._bucket_counts[bisect_left(self._buckets, value)] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("histogram is empty")
        return self._sum / self._count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(+Inf, count)``."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, count in zip(self._buckets, self._bucket_counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, self._count))
        return pairs


class MetricFamily:
    """A named metric plus its labelled children.

    ``labels(**values)`` addresses one child series; families declared
    with no label names expose the single unlabelled child through the
    convenience proxies (``inc``/``set``/``observe``/...).
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._names = frozenset(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def _new_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **values: object) -> Any:
        # exactly the declared names; the length test also rejects every
        # call on a family declared with a repeated name
        if values.keys() != self._names or len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(values))}"
            )
        key = tuple([str(values[name]) for name in self.labelnames])
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default(self) -> Any:
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "address a series with .labels(...)"
            )
        return self.labels()

    @property
    def series(self) -> dict[tuple[str, ...], Any]:
        """All children, keyed by label-value tuple (exposition order)."""
        return dict(sorted(self._children.items()))

    def _labelset(self, key: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class CounterFamily(MetricFamily):
    kind = "counter"

    def _new_child(self) -> CounterMetric:
        return CounterMetric()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return float(self._default().value)

    def render(self) -> list[str]:
        return [
            f"{self.name}{self._labelset(key)} {_format_value(child.value)}"
            for key, child in self.series.items()
        ]

    def snapshot_series(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": child.value}
            for key, child in self.series.items()
        ]


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _new_child(self) -> GaugeMetric:
        return GaugeMetric()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return float(self._default().value)

    @property
    def max(self) -> float:
        return float(self._default().max)

    @property
    def observations(self) -> int:
        return int(self._default().observations)

    def render(self) -> list[str]:
        return [
            f"{self.name}{self._labelset(key)} {_format_value(child.value)}"
            for key, child in self.series.items()
        ]

    def snapshot_series(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "value": child.value,
                "max": child.max,
            }
            for key, child in self.series.items()
        ]


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        ordered = tuple(buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets = ordered

    def _new_child(self) -> HistogramMetric:
        return HistogramMetric(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return int(self._default().count)

    @property
    def sum(self) -> float:
        return float(self._default().sum)

    def render(self) -> list[str]:
        lines: list[str] = []
        for key, child in self.series.items():
            for le, cumulative in child.cumulative_buckets():
                extra = f'le="{_format_value(le)}"'
                lines.append(
                    f"{self.name}_bucket{self._labelset(key, extra)} {cumulative}"
                )
            lines.append(
                f"{self.name}_sum{self._labelset(key)} {_format_value(child.sum)}"
            )
            lines.append(f"{self.name}_count{self._labelset(key)} {child.count}")
        return lines

    def snapshot_series(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "count": child.count,
                "sum": child.sum,
                "buckets": [
                    {"le": le if le != math.inf else "+Inf", "count": count}
                    for le, count in child.cumulative_buckets()
                ],
            }
            for key, child in self.series.items()
        ]


class TelemetryRegistry:
    """Owner of labelled metric families, with Prometheus exposition.

    ``counter``/``gauge``/``histogram`` create on first use and memoise;
    re-declaring a name with a different kind or label set is an error
    (silent divergence would corrupt the exposition).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(
        self,
        cls: type[MetricFamily],
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != labelnames:
                raise ConfigurationError(
                    f"metric {name!r} already declared as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> CounterFamily:
        family: CounterFamily = self._family(CounterFamily, name, help, labelnames)
        return family

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> GaugeFamily:
        family: GaugeFamily = self._family(GaugeFamily, name, help, labelnames)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        family: HistogramFamily = self._family(
            HistogramFamily, name, help, labelnames, buckets=buckets
        )
        return family

    @property
    def families(self) -> tuple[MetricFamily, ...]:
        """Every declared family, sorted by name (exposition order)."""
        return tuple(self._families[name] for name in sorted(self._families))

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self.families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """JSON-able view of every family (the JSONL snapshot payload)."""
        return {
            family.name: {
                "kind": family.kind,
                "help": family.help,
                "series": family.snapshot_series(),
            }
            for family in self.families
        }


class TransportTelemetry:
    """Populate a :class:`TelemetryRegistry` from a running transport.

    Category-scoped tracer subscriptions, one handler per category,
    cover the network layer (per-channel in-flight gauges, per-handler
    latency histograms) and, per span schema, a
    :class:`~repro.obs.stream.StreamingSpanEngine` turns settled
    computations into outcome counters and detection-latency histograms.  Works identically on
    :class:`~repro.sim.transport.SimTransport` and
    :class:`~repro.live.transport.AsyncioTransport` -- the subscription
    rides the same :class:`~repro.sim.trace.Tracer` either backend owns.

    Parameters
    ----------
    transport:
        The backend to observe.  :meth:`attach` must be called before
        the run starts (or use the constructor's ``attach=True``).
    schemas:
        Span schemas to fold; defaults to every registered variant model
        that declares a taxonomy.
    n_vertices / strict_bounds:
        Forwarded to each span engine's online section 4 checking.
    span_sink:
        Optional callback receiving every settled span (the monitor's
        ``--spans-out`` stream).
    """

    def __init__(
        self,
        transport: "Transport",
        *,
        schemas: Iterable[SpanSchema] | None = None,
        registry: TelemetryRegistry | None = None,
        n_vertices: int | None = None,
        strict_bounds: bool = False,
        span_sink: SpanSink | None = None,
        attach: bool = True,
    ) -> None:
        self.transport = transport
        self.registry = registry if registry is not None else TelemetryRegistry()
        if schemas is None:
            schemas = SCHEMAS_BY_MODEL.values()
        self.schemas = tuple(schemas)
        self.span_sink = span_sink
        #: detection latencies (virtual units) of every deadlock span, in
        #: settlement order -- the monitor's SLO input.
        self.detection_latencies: list[float] = []
        #: snapshots taken so far (see :meth:`snapshot_line`).
        self.snapshots = 0
        self._attached = False
        #: per channel with messages in flight: its in-flight series and
        #: the FIFO of (send time, message type) for latency matching (P4
        #: FIFO delivery makes the popleft correct).  A channel's entry is
        #: dropped when it drains, so memory follows the messages in flight.
        self._in_transit: dict[
            tuple[Hashable, Hashable], tuple[GaugeMetric, deque[tuple[float, str]]]
        ] = {}
        #: latency series per message type, found without re-labelling.
        self._latency_by_type: dict[str, HistogramMetric] = {}

        registry_ = self.registry
        self._in_flight = registry_.gauge(
            "repro_channel_in_flight",
            "Messages sent but not yet delivered, per channel",
            labelnames=("src", "dst"),
        )
        self._messages = registry_.counter(
            "repro_messages_total",
            "Messages sent, per channel and message type",
            labelnames=("src", "dst", "type"),
        )
        self._handler_latency = registry_.histogram(
            "repro_handler_latency_units",
            "Send-to-delivery latency in virtual units, per handler",
            labelnames=("handler",),
        )
        self._edge_probes = registry_.counter(
            "repro_edge_probes_total",
            "Probes sent per wait-for edge (section 4: <= 1 per computation)",
            labelnames=("model", "edge"),
        )
        self._computations = registry_.counter(
            "repro_computations_total",
            "Settled probe computations (i, n), per outcome",
            labelnames=("model", "outcome"),
        )
        self._detection_latency = registry_.histogram(
            "repro_detection_latency_units",
            "Initiation-to-declaration latency (virtual units) of deadlock "
            "computations",
            labelnames=("model",),
        )
        self._probes_per_computation = registry_.histogram(
            "repro_probes_per_computation",
            "Probes sent per settled computation (section 4 bounds |E|)",
            labelnames=("model",),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        self._violations = registry_.counter(
            "repro_bound_violations_total",
            "Online section 4 bound violations",
            labelnames=("model", "bound"),
        )
        self._open_computations = registry_.gauge(
            "repro_open_computations",
            "Probe computations currently unresolved, per model",
            labelnames=("model",),
        )
        self._declarations = registry_.counter(
            "repro_declarations_total",
            "Deadlock declarations (step A1), per model",
            labelnames=("model",),
        )

        #: one handler per observed category (network layer first, then
        #: each schema's probe-sent and declared categories).
        self._handlers: dict[str, Callable[[TraceEvent], None]] = {
            categories.NET_SENT: self._on_net_sent,
            categories.NET_DELIVERED: self._on_net_delivered,
        }
        self.engines: dict[str, StreamingSpanEngine] = {}
        for schema in self.schemas:
            engine = StreamingSpanEngine(
                schema,
                n_vertices=n_vertices,
                strict_bounds=strict_bounds,
                on_span=self._make_span_handler(schema.model),
                on_violation=self._make_violation_handler(schema.model),
            )
            self.engines[schema.model] = engine
            self._handlers[schema.probe_sent] = self._make_edge_probe_handler(schema)
            self._handlers[schema.declared] = self._make_declaration_handler(schema)
        if attach:
            self.attach()

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------

    def _make_span_handler(self, model: str) -> SpanSink:
        def on_span(span: ProbeComputationSpan) -> None:
            self._computations.labels(model=model, outcome=span.outcome.value).inc()
            self._probes_per_computation.labels(model=model).observe(
                float(span.probes_sent)
            )
            latency = span.detection_latency
            if latency is not None:
                self._detection_latency.labels(model=model).observe(latency)
                self.detection_latencies.append(latency)
            if self.span_sink is not None:
                self.span_sink(span)

        return on_span

    def _make_violation_handler(self, model: str) -> Callable[[BoundViolation], None]:
        def on_violation(violation: BoundViolation) -> None:
            self._violations.labels(model=model, bound=violation.bound).inc()

        return on_violation

    def _make_edge_probe_handler(self, schema: SpanSchema) -> Callable[[TraceEvent], None]:
        model = schema.model
        edge_of = schema.edge_of
        family = self._edge_probes
        # each edge's series, so an edge label is stringified only once
        by_edge: dict[Hashable, CounterMetric] = {}

        def on_probe_sent(event: TraceEvent) -> None:
            edge = edge_of(event)
            series = by_edge.get(edge)
            if series is None:
                series = by_edge[edge] = family.labels(model=model, edge=edge)
            series.inc()

        return on_probe_sent

    def _make_declaration_handler(self, schema: SpanSchema) -> Callable[[TraceEvent], None]:
        model = schema.model

        def on_declared(event: TraceEvent) -> None:
            self._declarations.labels(model=model).inc()

        return on_declared

    # ------------------------------------------------------------------
    # Network-layer plumbing
    # ------------------------------------------------------------------

    def _on_net_sent(self, event: TraceEvent) -> None:
        details = event.details
        sender = details["sender"]
        destination = details["destination"]
        type_name = type(details.get("message")).__name__
        channel = (sender, destination)
        transit = self._in_transit.get(channel)
        if transit is None:
            transit = self._in_transit[channel] = (
                self._in_flight.labels(src=sender, dst=destination),
                deque(),
            )
        in_flight, pending = transit
        in_flight.inc()
        self._messages.labels(src=sender, dst=destination, type=type_name).inc()
        pending.append((event.time, type_name))

    def _on_net_delivered(self, event: TraceEvent) -> None:
        details = event.details
        sender = details["sender"]
        destination = details["destination"]
        channel = (sender, destination)
        transit = self._in_transit.get(channel)
        if transit is None:
            # Sent before the telemetry attached: no send time to match.
            self._in_flight.labels(src=sender, dst=destination).dec()
            return
        in_flight, pending = transit
        in_flight.dec()
        sent_at, type_name = pending.popleft()
        if not pending:
            del self._in_transit[channel]
        latency = self._latency_by_type.get(type_name)
        if latency is None:
            latency = self._latency_by_type[type_name] = self._handler_latency.labels(
                handler=f"deliver {type_name}"
            )
        latency.observe(event.time - sent_at)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Subscribe everything to the transport's tracer (idempotent)."""
        if self._attached:
            return
        tracer = self.transport.tracer
        for category, handler in self._handlers.items():
            tracer.subscribe(handler, categories=(category,))
        for engine in self.engines.values():
            engine.attach(tracer)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        tracer = self.transport.tracer
        for handler in self._handlers.values():
            tracer.unsubscribe(handler)
        for engine in self.engines.values():
            engine.detach(tracer)
        self._attached = False

    def finish(self) -> list[ProbeComputationSpan]:
        """Flush every engine's unresolved computations (end of run)."""
        flushed: list[ProbeComputationSpan] = []
        for engine in self.engines.values():
            flushed.extend(engine.finish())
        self._update_open_gauges()
        return flushed

    def _update_open_gauges(self) -> None:
        for model, engine in self.engines.items():
            self._open_computations.labels(model=model).set(
                float(engine.open_computations)
            )

    # ------------------------------------------------------------------
    # Derived views & export
    # ------------------------------------------------------------------

    @property
    def bound_violations(self) -> int:
        return sum(len(engine.violations) for engine in self.engines.values())

    def in_flight_by_destination(self) -> dict[str, float]:
        """Queue depth per receiving node: sum of in-flight on its inbound
        channels (the monitor console's per-vertex column)."""
        depths: dict[str, float] = {}
        for key, child in self._in_flight.series.items():
            dst = key[1]
            depths[dst] = depths.get(dst, 0.0) + child.value
        return depths

    def render_prometheus(self) -> str:
        self._update_open_gauges()
        return self.registry.render_prometheus()

    def snapshot(self, now: float) -> dict[str, Any]:
        """One JSON-able snapshot of the registry plus transport counters.

        ``now`` is the transport's virtual clock; this module never reads
        a clock itself (RPX002).
        """
        self._update_open_gauges()
        self.snapshots += 1
        families = self.registry.snapshot()
        document: dict[str, Any] = {
            "schema": "repro.obs.metrics-snapshot/1",
            "now": now,
            "sequence": self.snapshots,
            "families": families,
            "transport_counters": self.transport.metrics.snapshot(),
        }
        tracer = self.transport.tracer
        if tracer.wants(categories.OBS_METRICS_SNAPSHOT):
            tracer.record(
                now,
                categories.OBS_METRICS_SNAPSHOT,
                sequence=self.snapshots,
                families=len(families),
            )
        return document

    def snapshot_line(self, now: float) -> str:
        """One compact JSONL line for the periodic snapshot export."""
        return json.dumps(self.snapshot(now), sort_keys=True, default=str)


def telemetry_for_variant(
    transport: "Transport",
    capabilities: "VariantCapabilities | None",
    *,
    n_vertices: int | None = None,
    span_sink: SpanSink | None = None,
    registry: TelemetryRegistry | None = None,
    strict_bounds: bool = False,
) -> TransportTelemetry:
    """Attach the standard telemetry bridge for one registered variant.

    The one blessed way to wire :class:`TransportTelemetry` to a run of a
    known variant: the span schema is resolved from the variant's
    capabilities (a variant without a probe taxonomy -- e.g. the timeout
    baseline -- gets network metrics only, no span engine), and the
    subscription rides ``transport.tracer`` whichever backend owns it --
    simulator, asyncio runtime, or the multi-process cluster coordinator.
    :func:`repro.runner.run` (on every transport) and the observability
    benchmarks share this helper instead of hand-rolling the schema
    lookup.
    """
    schemas: tuple[SpanSchema, ...] = ()
    if capabilities is not None and capabilities.taxonomy is not None:
        schemas = (SCHEMAS_BY_MODEL[capabilities.model],)
    return TransportTelemetry(
        transport,
        schemas=schemas,
        registry=registry,
        n_vertices=n_vertices,
        strict_bounds=strict_bounds,
        span_sink=span_sink,
    )
