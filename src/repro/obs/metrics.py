"""Transport-neutral live metrics: labelled families + Prometheus text.

This is the one metrics registry.  A monitor needs bounded-memory
aggregates (bucketed histograms, high-water gauges) addressable by label
sets and exportable in the Prometheus text format; post-run accounting
reads the systems' own records (declarations, probe accounting) and the
transport's plain event counts instead.  This module provides that
layer, plus :class:`TransportTelemetry` -- the bridge that populates it
from any :class:`~repro.core.transport.Transport` backend through the
tracer's message observers and category-scoped subscriptions, so the
same wiring observes the deterministic simulator and the live asyncio
runtime.  The bridge keeps its per-channel families as plain counts,
reads the per-edge probe counts from its span engines, and turns both
into labelled series only when the registry is read (the Prometheus
"custom collector" pattern), so a message costs no label formatting and
no series allocation.

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
from repro.obs.spans import SCHEMAS_BY_MODEL, ProbeComputationSpan, SpanOutcome, SpanSchema
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


def _collect_nothing() -> None:
    """The read hook of a family outside any registry."""


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
    counts as one observation and ratchets the high-water mark.  The
    bridge's in-flight series are written at each registry read instead
    (value and high-water mark of the channel's send FIFO), so their
    ``observations`` stay 0; nothing exports or reads that count.
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

    Every read -- ``labels``, ``series``, ``render``, ``snapshot_series``
    and the unlabelled proxies' ``value``/``max``/``count``/... -- first
    runs the owning registry's collectors (see
    :meth:`TelemetryRegistry.add_collector`); the write proxies do not.
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
        #: the owning registry's read hook (installed by the registry).
        self._collect: Callable[[], None] = _collect_nothing

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
        self._collect()
        return self._child(tuple([str(values[name]) for name in self.labelnames]))

    def _child(self, key: tuple[str, ...]) -> Any:
        """The series at ``key`` (label values already strings), created if
        new.  The write path: unlike :meth:`labels` it collects nothing."""
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _default(self) -> Any:
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "address a series with .labels(...)"
            )
        return self._child(())

    def _read_default(self) -> Any:
        self._collect()
        return self._default()

    @property
    def series(self) -> dict[tuple[str, ...], Any]:
        """All children, keyed by label-value tuple (exposition order)."""
        self._collect()
        return self._sorted()

    def _sorted(self) -> dict[tuple[str, ...], Any]:
        return dict(sorted(self._children.items()))

    def render(self) -> list[str]:
        """The family's Prometheus sample lines."""
        self._collect()
        return self._render()

    def snapshot_series(self) -> list[dict[str, Any]]:
        """JSON-able view of every series."""
        self._collect()
        return self._snapshot()

    def _render(self) -> list[str]:
        raise NotImplementedError

    def _snapshot(self) -> list[dict[str, Any]]:
        raise NotImplementedError

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
        return float(self._read_default().value)

    def _render(self) -> list[str]:
        return [
            f"{self.name}{self._labelset(key)} {_format_value(child.value)}"
            for key, child in self._sorted().items()
        ]

    def _snapshot(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": child.value}
            for key, child in self._sorted().items()
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
        return float(self._read_default().value)

    @property
    def max(self) -> float:
        return float(self._read_default().max)

    @property
    def observations(self) -> int:
        return int(self._read_default().observations)

    def _render(self) -> list[str]:
        return [
            f"{self.name}{self._labelset(key)} {_format_value(child.value)}"
            for key, child in self._sorted().items()
        ]

    def _snapshot(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "value": child.value,
                "max": child.max,
            }
            for key, child in self._sorted().items()
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
        return int(self._read_default().count)

    @property
    def sum(self) -> float:
        return float(self._read_default().sum)

    def _render(self) -> list[str]:
        lines: list[str] = []
        for key, child in self._sorted().items():
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

    def _snapshot(self) -> list[dict[str, Any]]:
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
            for key, child in self._sorted().items()
        ]


class TelemetryRegistry:
    """Owner of labelled metric families, with Prometheus exposition.

    ``counter``/``gauge``/``histogram`` create on first use and memoise;
    re-declaring a name with a different kind, label set or histogram
    buckets is an error (silent divergence would corrupt the exposition).

    An owner that keeps raw counts instead of writing series as events
    happen registers a collector (:meth:`add_collector`) that turns them
    into series.  Every read runs the collectors first: ``families`` (so
    :meth:`render_prometheus` and :meth:`snapshot`), the lookup of a
    declared family, and each family's reads, including those of a family
    looked up once and read after more events.  A child series that a
    read returned holds the values of that read.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect`` before every read of this registry.

        A collector writes through the families' write path
        (``MetricFamily._child`` and the series' own fields), never
        through a read, which would run it again.
        """
        self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in self._collectors:
            collect()

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
            self._collect()
            return existing
        family = cls(name, help, labelnames, **kwargs)
        family._collect = self._collect
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
        if family.buckets != tuple(buckets):
            raise ConfigurationError(
                f"histogram {name!r} already declared with buckets "
                f"{family.buckets}, not {tuple(buckets)}"
            )
        return family

    @property
    def families(self) -> tuple[MetricFamily, ...]:
        """Every declared family, sorted by name (exposition order)."""
        self._collect()
        return tuple(self._families[name] for name in sorted(self._families))

    # The whole-registry reads collect once, through ``families``, and
    # then read each family without collecting again.

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for family in self.families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family._render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """JSON-able view of every family (the JSONL snapshot payload)."""
        return {
            family.name: {
                "kind": family.kind,
                "help": family.help,
                "series": family._snapshot(),
            }
            for family in self.families
        }


class _Channel:
    """One channel the bridge has seen a send on: its raw counts, and the
    series a registry read made of them."""

    __slots__ = ("counters", "fifo", "gauge", "high", "labels", "sent")

    def __init__(self) -> None:
        #: ``(send time, message type)`` of each of the bridge's messages in
        #: flight, oldest first (P4 FIFO delivery makes the popleft
        #: correct); ``None`` once drained, so an idle channel keeps no deque.
        self.fifo: deque[tuple[float, str]] | None = None
        #: the FIFO's high-water mark.
        self.high = 0
        #: sends per message type.
        self.sent: dict[str, int] = {}
        #: ``(src, dst)`` label values and the series, made by the first
        #: read after the channel's first send.
        self.labels: tuple[str, str] = ("", "")
        self.gauge: GaugeMetric | None = None
        self.counters: dict[str, CounterMetric] = {}


class TransportTelemetry:
    """Populate a :class:`TelemetryRegistry` from a running transport.

    The tracer's message observers cover the network layer (per-channel
    in-flight gauges and message counts, per-handler latency
    histograms); one category-scoped subscription per schema counts
    declarations; and, per span schema, a
    :class:`~repro.obs.stream.StreamingSpanEngine` turns settled
    computations into outcome counters and detection-latency histograms
    and counts the probes sent per wait-for edge
    (:attr:`~repro.obs.stream.StreamingSpanEngine.edge_probes`), which
    the bridge exports without counting them again.
    Works identically on :class:`~repro.sim.transport.SimTransport` and
    :class:`~repro.live.transport.AsyncioTransport` -- the subscription
    rides the same :class:`~repro.sim.trace.Tracer` either backend owns.

    The three high-cardinality families -- ``repro_channel_in_flight``,
    ``repro_messages_total`` and ``repro_edge_probes_total`` -- are kept
    as plain per-channel counts (the bridge's) and per-edge counts (the
    engines') while events flow.  The
    bridge's collector, which the registry runs before every read, makes
    each series the first time a read needs it and writes the current
    counts into it, so a run pays for these families per read, not per
    message.  The open-computations gauges are sampled by the same
    collector while the bridge is attached.  The other series are
    written as events happen, created on first use.  Each bridge owns
    its registry, since its collector writes these series rather than
    adding to them.

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
        n_vertices: int | None = None,
        strict_bounds: bool = False,
        span_sink: SpanSink | None = None,
        attach: bool = True,
    ) -> None:
        self.transport = transport
        self.registry = TelemetryRegistry()
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
        #: every channel a send was seen on, by ``(sender, destination)``.
        self._channels: dict[tuple[Hashable, Hashable], _Channel] = {}
        #: per model: the series a read made of its engine's per-edge counts.
        self._edge_probe_series: dict[str, dict[Hashable, CounterMetric]] = {}
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

        #: one handler per observed category: each schema's declared
        #: category (sends and deliveries arrive through the tracer's
        #: message channel, probes per edge from the span engines).
        self._handlers: dict[str, Callable[[TraceEvent], None]] = {}
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
            self._edge_probe_series[schema.model] = {}
            self._handlers[schema.declared] = self._make_declaration_handler(schema)
        registry_.add_collector(self._collect)
        if attach:
            self.attach()

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------

    def _make_span_handler(self, model: str) -> SpanSink:
        # The model's series, labelled on first use (an eagerly created
        # series would be exported at zero) and never again.
        outcomes: dict[SpanOutcome, CounterMetric] = {}
        probes: HistogramMetric | None = None
        latencies: HistogramMetric | None = None

        def on_span(span: ProbeComputationSpan) -> None:
            nonlocal probes, latencies
            outcome = span.outcome
            counter = outcomes.get(outcome)
            if counter is None:
                counter = outcomes[outcome] = self._computations._child(
                    (model, outcome.value)
                )
            counter.inc()
            if probes is None:
                probes = self._probes_per_computation._child((model,))
            probes.observe(float(span.probes_sent))
            latency = span.detection_latency
            if latency is not None:
                if latencies is None:
                    latencies = self._detection_latency._child((model,))
                latencies.observe(latency)
                self.detection_latencies.append(latency)
            if self.span_sink is not None:
                self.span_sink(span)

        return on_span

    def _make_violation_handler(self, model: str) -> Callable[[BoundViolation], None]:
        def on_violation(violation: BoundViolation) -> None:
            self._violations._child((model, str(violation.bound))).inc()

        return on_violation

    def _make_declaration_handler(self, schema: SpanSchema) -> Callable[[TraceEvent], None]:
        declared: CounterMetric | None = None

        def on_declared(event: TraceEvent) -> None:
            nonlocal declared
            if declared is None:
                declared = self._declarations._child((schema.model,))
            declared.inc()

        return on_declared

    # ------------------------------------------------------------------
    # Network-layer plumbing
    # ------------------------------------------------------------------

    def _on_net_sent(
        self, time: float, sender: Hashable, destination: Hashable, message: Any
    ) -> None:
        type_name = type(message).__name__
        channel = self._channels.get((sender, destination))
        if channel is None:
            channel = self._channels[sender, destination] = _Channel()
        pending = channel.fifo
        if pending is None:
            pending = channel.fifo = deque()
        pending.append((time, type_name))
        if len(pending) > channel.high:
            channel.high = len(pending)
        sent = channel.sent
        sent[type_name] = sent.get(type_name, 0) + 1

    def _on_net_delivered(
        self, time: float, sender: Hashable, destination: Hashable, message: Any
    ) -> None:
        channel = self._channels.get((sender, destination))
        if channel is None or not channel.fifo:
            # Sent before the bridge attached: no send of its own to match,
            # so the delivery counts nowhere.
            return
        pending = channel.fifo
        sent_at, type_name = pending.popleft()
        if not pending:
            channel.fifo = None
        latency = self._latency_by_type.get(type_name)
        if latency is None:
            latency = self._latency_by_type[type_name] = self._handler_latency._child(
                (f"deliver {type_name}",)
            )
        latency.observe(time - sent_at)

    def _collect(self) -> None:
        """Write the raw counts into their series (the registry's read hook)."""
        for (sender, destination), channel in self._channels.items():
            gauge = channel.gauge
            if gauge is None:
                channel.labels = (str(sender), str(destination))
                gauge = channel.gauge = self._in_flight._child(channel.labels)
            fifo = channel.fifo
            gauge._value = float(len(fifo)) if fifo else 0.0
            gauge._max = float(channel.high)
            counters = channel.counters
            for type_name, count in channel.sent.items():
                counter = counters.get(type_name)
                if counter is None:
                    counter = counters[type_name] = self._messages._child(
                        (*channel.labels, type_name)
                    )
                counter._value = float(count)
        for model, engine in self.engines.items():
            by_edge = self._edge_probe_series[model]
            for edge, count in engine.edge_probes.items():
                counter = by_edge.get(edge)
                if counter is None:
                    counter = by_edge[edge] = self._edge_probes._child((model, str(edge)))
                counter._value = float(count)
        if self._attached:
            for model, engine in self.engines.items():
                self._open_computations._child((model,)).set(
                    float(engine.open_computations)
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Subscribe everything to the transport's tracer (idempotent).

        Attach before the first send, as :func:`repro.runner.run` does.  A
        message sent earlier is counted nowhere: its delivery finds no send
        of the bridge's own in flight on its channel.  On a channel that
        carries messages from both sides of a late attach, FIFO matching
        charges an early message's delivery latency to a later send; the
        counts stay right.
        """
        if self._attached:
            return
        tracer = self.transport.tracer
        tracer.observe_messages(self._on_net_sent, self._on_net_delivered)
        for category, handler in self._handlers.items():
            tracer.subscribe(handler, categories=(category,))
        for engine in self.engines.values():
            engine.attach(tracer)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        tracer = self.transport.tracer
        tracer.unobserve_messages(self._on_net_sent, self._on_net_delivered)
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
        return flushed

    # ------------------------------------------------------------------
    # Derived views & export
    # ------------------------------------------------------------------

    @property
    def bound_violations(self) -> int:
        return sum(len(engine.violations) for engine in self.engines.values())

    @property
    def messages_delivered(self) -> int:
        """Deliveries matched to a send this bridge saw: one latency
        observation each, so every delivery once the bridge attached before
        the first send (as :func:`repro.runner.run` attaches it).  A
        delivery of a message sent before :meth:`attach` is not counted."""
        return sum(series.count for series in self._latency_by_type.values())

    def in_flight_by_destination(self) -> dict[str, float]:
        """Queue depth per receiving node: sum of in-flight on its inbound
        channels (the monitor console's per-vertex column).  Read from the
        channels' FIFOs directly; it builds no series."""
        depths: dict[str, float] = {}
        for (_, destination), channel in self._channels.items():
            node = str(destination)
            depths[node] = depths.get(node, 0.0) + (len(channel.fifo) if channel.fifo else 0)
        return depths

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()

    def snapshot(self, now: float) -> dict[str, Any]:
        """One JSON-able snapshot of the registry plus the transport's counts.

        ``now`` is the transport's virtual clock; this module never reads
        a clock itself (RPX002).
        """
        self.snapshots += 1
        families = self.registry.snapshot()
        document: dict[str, Any] = {
            "schema": "repro.obs.metrics-snapshot/1",
            "now": now,
            "sequence": self.snapshots,
            "families": families,
            "transport_counters": dict(sorted(self.transport.counts.items())),
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
        n_vertices=n_vertices,
        strict_bounds=strict_bounds,
        span_sink=span_sink,
    )
