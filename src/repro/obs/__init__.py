"""Observability layer: spans, trace export, and simulator profiling.

The paper's correctness and performance claims are *temporal* -- QRP2 holds
"at the moment the meaningful probe is received", and section 4 bounds the
probes each computation may send -- so a flat event list is the wrong shape
for inspecting a run.  This package folds the structured trace recorded by
:class:`repro.sim.trace.Tracer` into higher-level artifacts:

* :mod:`repro.obs.spans` -- reconstruct each probe computation ``(i, n)``
  as a :class:`~repro.obs.spans.ProbeComputationSpan`: initiation, every
  probe hop with its latency split, the outcome, and machine-checked
  section 4 probe bounds.
* :mod:`repro.obs.export` -- lossless JSONL round-trip of traces plus
  Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.profile` -- opt-in wall-clock profiling of the simulator
  itself (events/sec, queue depth, per-handler-category time).  This is the
  **only** module in the scoped packages allowed to read the wall clock
  (lint rule RPX002's documented allowlist).
* :mod:`repro.obs.stream` -- the incremental twin of the span fold: a
  category-scoped tracer subscription rebuilds spans one event at a time,
  emits each computation the moment it resolves, and checks the section 4
  probe bounds online, with memory bounded by the *open* computations.
* :mod:`repro.obs.metrics` -- labelled live metric families (counters,
  gauges, bucketed histograms) with Prometheus text exposition, plus
  :class:`~repro.obs.metrics.TransportTelemetry`, which populates them
  from any transport backend (the observer behind ``repro run``).

Layering: ``obs`` observes the protocol core from outside, exactly like
``analysis``/``verification``; protocol packages must never import it
(enforced by lint rule RPX004).
"""

from repro.obs.export import (
    events_from_jsonl,
    events_to_chrome,
    events_to_jsonl,
    read_jsonl,
    write_jsonl,
)
from repro.obs.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    TelemetryRegistry,
    TransportTelemetry,
)
from repro.obs.profile import ProfileReport, SimulatorProfiler, profiling
from repro.obs.spans import (
    BASIC_SPAN_SCHEMA,
    DDB_SPAN_SCHEMA,
    ProbeComputationSpan,
    ProbeHop,
    SpanOutcome,
    SpanSchema,
    build_spans,
    check_probe_bounds,
)
from repro.obs.stream import (
    StreamingSpanEngine,
    span_sort_key,
    span_to_json,
    stream_spans,
)

__all__ = [
    "BASIC_SPAN_SCHEMA",
    "DDB_SPAN_SCHEMA",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "ProbeComputationSpan",
    "ProbeHop",
    "ProfileReport",
    "SimulatorProfiler",
    "SpanOutcome",
    "SpanSchema",
    "StreamingSpanEngine",
    "TelemetryRegistry",
    "TransportTelemetry",
    "build_spans",
    "check_probe_bounds",
    "events_from_jsonl",
    "events_to_chrome",
    "events_to_jsonl",
    "profiling",
    "read_jsonl",
    "span_sort_key",
    "span_to_json",
    "stream_spans",
    "write_jsonl",
]
