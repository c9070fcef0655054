"""Live metrics layer: primitives, families, registry, transport bridge.

The unit half pins the primitive semantics (monotone counters, gauge
high-water marks, bucketed histograms), the Prometheus text exposition
(label escaping, cumulative ``_bucket`` series, ``+Inf``) and the
registry's read hook.  The integration half runs a real deadlock through
a sim-backed :class:`~repro.obs.metrics.TransportTelemetry` and checks
that what the families report agrees with what the run actually did,
including reads taken mid-run, between ticks.
"""

from __future__ import annotations

import json
import math
from typing import Any

import pytest

from repro.basic.system import BasicSystem
from repro.core.assembly import build_runtime
from repro.core.registry import get_variant
from repro.errors import ConfigurationError
from repro.obs.metrics import (
    CounterFamily,
    CounterMetric,
    GaugeFamily,
    GaugeMetric,
    HistogramMetric,
    TelemetryRegistry,
    TransportTelemetry,
    telemetry_for_variant,
)
from repro.obs.spans import BASIC_SPAN_SCHEMA, SpanOutcome
from repro.sim.process import Process
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec

#: the families the bridge keeps as raw counts and builds when read.
COLLECTED = ("repro_channel_in_flight", "repro_messages_total", "repro_edge_probes_total")


class TestPrimitives:
    def test_counter_is_monotone(self) -> None:
        counter = CounterMetric()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_tracks_high_water_and_observations(self) -> None:
        gauge = GaugeMetric()
        gauge.set(3)
        gauge.set(7)
        gauge.dec(5)
        assert gauge.value == 2
        assert gauge.max == 7
        assert gauge.observations == 3
        with pytest.raises(ValueError, match="NaN"):
            gauge.set(float("nan"))

    def test_histogram_buckets_are_cumulative(self) -> None:
        histogram = HistogramMetric(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 20.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(24.2)
        assert histogram.mean == pytest.approx(6.05)
        assert histogram.cumulative_buckets() == [
            (1.0, 2),
            (5.0, 3),
            (10.0, 3),
            (math.inf, 4),
        ]
        # ``le`` is inclusive: a value on a bound counts in that bound's
        # bucket; +Inf lands only in the +Inf bucket.
        for value in (1.0, 5.0, math.inf):
            histogram.observe(value)
        assert histogram.count == 7
        assert histogram.sum == math.inf
        assert histogram.cumulative_buckets() == [
            (1.0, 3),
            (5.0, 5),
            (10.0, 5),
            (math.inf, 7),
        ]

    def test_empty_histogram_has_no_mean(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            HistogramMetric(buckets=(1.0,)).mean


class TestRegistry:
    def test_families_memoise_by_name(self) -> None:
        registry = TelemetryRegistry()
        first = registry.counter("repro_x_total", "x", labelnames=("k",))
        again = registry.counter("repro_x_total", "x", labelnames=("k",))
        assert first is again

    def test_kind_and_label_mismatch_are_rejected(self) -> None:
        registry = TelemetryRegistry()
        registry.counter("repro_x_total", labelnames=("k",))
        with pytest.raises(ConfigurationError, match="already declared"):
            registry.gauge("repro_x_total", labelnames=("k",))
        with pytest.raises(ConfigurationError, match="already declared"):
            registry.counter("repro_x_total", labelnames=("other",))

    def test_histogram_redeclared_with_other_buckets_is_rejected(self) -> None:
        registry = TelemetryRegistry()
        first = registry.histogram("x_units", "h", ("m",), buckets=(1.0, 2.0))
        assert registry.histogram("x_units", "h", ("m",), buckets=(1.0, 2.0)) is first
        with pytest.raises(
            ConfigurationError, match=r"\(1\.0, 2\.0\), not \(5\.0, 50\.0\)"
        ):
            registry.histogram("x_units", "h", ("m",), buckets=(5.0, 50.0))
        assert first.buckets == (1.0, 2.0)

    def test_collectors_run_before_every_read_and_no_write(self) -> None:
        registry = TelemetryRegistry()
        counter = registry.counter("repro_a_total", labelnames=("k",))
        gauge = registry.gauge("repro_b")
        runs: list[None] = []
        registry.add_collector(lambda: runs.append(None))
        reads = {
            "lookup": lambda: registry.gauge("repro_b"),
            "families": lambda: registry.families,
            "render_prometheus": registry.render_prometheus,
            "snapshot": registry.snapshot,
            "labels": lambda: counter.labels(k="v"),
            "series": lambda: counter.series,
            "render": counter.render,
            "snapshot_series": counter.snapshot_series,
            "value": lambda: gauge.value,
            "max": lambda: gauge.max,
        }
        for name, read in reads.items():
            before = len(runs)
            read()
            assert len(runs) == before + 1, f"{name} ran {len(runs) - before} collects"
        before = len(runs)
        gauge.set(2.0)
        gauge.inc()
        assert len(runs) == before

    def test_invalid_names_are_rejected(self) -> None:
        registry = TelemetryRegistry()
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            registry.counter("0-bad")
        with pytest.raises(ConfigurationError, match="invalid label name"):
            registry.counter("repro_ok_total", labelnames=("bad-label",))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            registry.histogram("repro_h", buckets=(5.0, 1.0))

    def test_label_addressing(self) -> None:
        registry = TelemetryRegistry()
        family = registry.counter("repro_msgs_total", labelnames=("src", "dst"))
        family.labels(src=0, dst=1).inc()
        family.labels(src=0, dst=1).inc()
        family.labels(dst=2, src=0).inc()  # keyword order is irrelevant
        assert family.labels(src=0, dst=1).value == 2
        assert family.labels(src=0, dst=2).value == 1
        with pytest.raises(ConfigurationError, match="takes labels"):
            family.labels(src=0)
        with pytest.raises(ConfigurationError, match="address a series"):
            family.inc()  # labelled family has no default child

    def test_prometheus_exposition_format(self) -> None:
        registry = TelemetryRegistry()
        registry.counter("repro_a_total", "things", labelnames=("k",)).labels(
            k='quo"te\n'
        ).inc()
        registry.gauge("repro_b", "level").set(1.5)
        histogram = registry.histogram("repro_c_units", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP repro_a_total things" in text
        assert "# TYPE repro_a_total counter" in text
        assert 'repro_a_total{k="quo\\"te\\n"} 1' in text
        assert "repro_b 1.5" in text
        assert 'repro_c_units_bucket{le="1"} 1' in text
        assert 'repro_c_units_bucket{le="2"} 1' in text
        assert 'repro_c_units_bucket{le="+Inf"} 2' in text
        assert "repro_c_units_sum 5.5" in text
        assert "repro_c_units_count 2" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_able(self) -> None:
        registry = TelemetryRegistry()
        registry.counter("repro_a_total", labelnames=("k",)).labels(k="v").inc()
        registry.histogram("repro_c_units", buckets=(1.0,)).observe(0.5)
        document = json.loads(json.dumps(registry.snapshot()))
        assert document["repro_a_total"]["kind"] == "counter"
        assert document["repro_a_total"]["series"][0] == {
            "labels": {"k": "v"},
            "value": 1.0,
        }
        buckets = document["repro_c_units"]["series"][0]["buckets"]
        assert buckets[-1]["le"] == "+Inf"


class TestTransportTelemetry:
    def run_deadlock(self, **kwargs):
        system = BasicSystem(n_vertices=3, seed=0, trace=False)
        telemetry = TransportTelemetry(
            system.transport,
            schemas=(BASIC_SPAN_SCHEMA,),
            n_vertices=3,
            **kwargs,
        )
        for i in range(3):
            system.schedule_request(0.5 * i, i, [(i + 1) % 3])
        system.run_to_quiescence()
        telemetry.finish()
        return system, telemetry

    def test_counters_agree_with_the_run(self) -> None:
        system, telemetry = self.run_deadlock()
        registry = telemetry.registry
        declared = registry.counter(
            "repro_declarations_total", labelnames=("model",)
        ).labels(model="basic")
        assert declared.value == len(system.declarations) >= 1
        outcomes = registry.counter(
            "repro_computations_total", labelnames=("model", "outcome")
        )
        settled = sum(child.value for child in outcomes.series.values())
        assert settled == telemetry.engines["basic"].emitted > 0
        assert outcomes.labels(model="basic", outcome=SpanOutcome.DEADLOCK.value).value

    def test_in_flight_drains_to_zero(self) -> None:
        _, telemetry = self.run_deadlock()
        depths = telemetry.in_flight_by_destination()
        assert depths, "a 3-cycle run must touch some channel"
        assert all(depth == 0 for depth in depths.values())
        # ... but the channels were used: every gauge saw a positive max
        series = telemetry.registry.gauge(
            "repro_channel_in_flight", labelnames=("src", "dst")
        ).series
        assert all(child.max >= 1 for child in series.values())

    def test_detection_latency_feeds_the_slo_input(self) -> None:
        _, telemetry = self.run_deadlock()
        assert telemetry.detection_latencies
        assert all(latency > 0 for latency in telemetry.detection_latencies)
        histogram = telemetry.registry.histogram(
            "repro_detection_latency_units", labelnames=("model",)
        )
        assert histogram.labels(model="basic").count == len(
            telemetry.detection_latencies
        )

    def test_bounds_hold_and_span_sink_streams(self) -> None:
        streamed: list = []
        _, telemetry = self.run_deadlock(span_sink=streamed.append)
        assert telemetry.bound_violations == 0
        assert len(streamed) == telemetry.engines["basic"].emitted

    def test_snapshot_line_round_trips(self) -> None:
        system, telemetry = self.run_deadlock()
        document = json.loads(telemetry.snapshot_line(system.now))
        assert document["schema"] == "repro.obs.metrics-snapshot/1"
        assert document["now"] == system.now
        assert document["sequence"] == telemetry.snapshots == 1
        assert "repro_messages_total" in document["families"]
        assert "transport_counters" in document

    def test_detach_is_idempotent_and_stops_observation(self) -> None:
        system = BasicSystem(n_vertices=3, seed=0, trace=False)
        telemetry = TransportTelemetry(
            system.transport, schemas=(BASIC_SPAN_SCHEMA,), n_vertices=3
        )
        telemetry.detach()
        telemetry.detach()  # second call is a no-op
        for i in range(3):
            system.schedule_request(0.5 * i, i, [(i + 1) % 3])
        system.run_to_quiescence()
        observed = [
            family.name for family in telemetry.registry.families if family.series
        ]
        assert not observed, f"detached telemetry observed {observed}"
        telemetry.finish()
        assert telemetry.engines["basic"].emitted == 0

    def test_trace_false_run_still_buffers_nothing(self) -> None:
        system, _ = self.run_deadlock()
        assert len(system.transport.tracer) == 0

    def test_message_observers_build_no_series(self, monkeypatch) -> None:
        built: list[str] = []
        for cls in (CounterFamily, GaugeFamily):
            new_child = cls._new_child

            def counting(family: Any, new_child: Any = new_child) -> Any:
                built.append(family.name)
                return new_child(family)

            monkeypatch.setattr(cls, "_new_child", counting)
        _, telemetry = self.run_deadlock()
        assert not set(COLLECTED) & set(built)
        text = telemetry.render_prometheus()
        assert set(COLLECTED) <= set(built)
        # each series is built once: a second read only rewrites values
        before = len(built)
        assert telemetry.render_prometheus() == text
        assert len(built) == before

    def test_late_attach_counts_earlier_sends_nowhere(self) -> None:
        transport = build_runtime(seed=0, trace=False).transport
        sender = transport.register(_Sink("a"))
        transport.register(_Sink("b"))
        sender.send("b", "early")
        telemetry = TransportTelemetry(transport, schemas=())
        transport.run_to_quiescence()
        assert telemetry.in_flight_by_destination() == {}
        assert telemetry.messages_delivered == 0
        assert not telemetry.registry.gauge(
            "repro_channel_in_flight", labelnames=("src", "dst")
        ).series
        # one message from each side of the attach on one channel: the
        # counts stay right (the latency is charged to the later send)
        telemetry.detach()
        sender.send("b", "before")
        telemetry.attach()
        sender.send("b", "after")
        transport.run_to_quiescence()
        assert telemetry.in_flight_by_destination() == {"b": 0.0}
        assert telemetry.messages_delivered == 1
        text = telemetry.render_prometheus()
        assert 'repro_channel_in_flight{src="a",dst="b"} 0' in text
        assert 'repro_messages_total{src="a",dst="b",type="str"} 1' in text


class _Sink(Process):
    def on_message(self, sender: Any, message: Any) -> None:
        pass


class TestReadsBetweenTicks:
    """Registry reads mid-run see every message observed so far."""

    def test_reads_between_ticks_are_current(self) -> None:
        variant = get_variant("basic")
        spec = WorkloadSpec(family="bursty", n=41).with_seed(0)
        transport = build_runtime(seed=0, trace=False).transport
        system = provision_workload(variant, spec, transport=transport).system
        telemetry = telemetry_for_variant(
            transport, variant.capabilities, n_vertices=spec.n
        )
        # an independent tally of the same sends and deliveries
        in_flight: dict[tuple[str, str], int] = {}
        high: dict[tuple[str, str], int] = {}
        sent: dict[tuple[str, str, str], int] = {}

        def on_sent(time: float, src: Any, dst: Any, message: Any) -> None:
            channel = (str(src), str(dst))
            in_flight[channel] = in_flight.get(channel, 0) + 1
            high[channel] = max(high.get(channel, 0), in_flight[channel])
            key = (*channel, type(message).__name__)
            sent[key] = sent.get(key, 0) + 1

        def on_delivered(time: float, src: Any, dst: Any, message: Any) -> None:
            in_flight[str(src), str(dst)] -= 1

        transport.tracer.observe_messages(on_sent, on_delivered)
        registry = telemetry.registry
        held = registry.gauge("repro_channel_in_flight", labelnames=("src", "dst"))
        busy_reads = 0
        while True:
            transport.run(until=transport.now + 10.0)
            assert {key: (child.value, child.max) for key, child in held.series.items()} == {
                channel: (float(depth), float(high[channel]))
                for channel, depth in in_flight.items()
            }
            busy_reads += any(in_flight.values())
            families = registry.snapshot()
            messages = {
                (labels["src"], labels["dst"], labels["type"]): series["value"]
                for series in families["repro_messages_total"]["series"]
                for labels in (series["labels"],)
            }
            assert messages == {key: float(count) for key, count in sent.items()}
            probes = families["repro_edge_probes_total"]["series"]
            assert sum(series["value"] for series in probes) == system.probes_sent
            # no event between two reads: the same bytes
            assert registry.render_prometheus() == registry.render_prometheus()
            assert registry.snapshot() == families
            if transport.quiescent:
                break
        assert busy_reads, "no read found a message in flight"
        assert system.probes_sent > 0
