"""Streaming-vs-batch parity: the hard contract of :mod:`repro.obs.stream`.

:func:`~repro.obs.stream.stream_spans` (and a live category-scoped
subscription feeding :class:`~repro.obs.stream.StreamingSpanEngine`) must
reproduce :func:`~repro.obs.spans.build_spans` **field for field** on every
registered variant that exports a probe taxonomy, in both the deadlock and
the clean conformance scenario, and under churn (``bursty``, ``ddb-hot``),
where each initiator has many superseded computations open at once.  The
suite also pins the properties that make the engine fit for monitoring a
``repro run``: bounded memory (settled spans are evicted, ``peak_open``
stays far below the number of computations),
zero buffering under ``trace=False``, online section 4 bound detection,
and the ``obs.span.settled`` trace hook.
"""

from __future__ import annotations

import pytest

from repro._ids import ProbeTag
from repro.basic.system import BasicSystem
from repro.core import all_variants, get_variant
from repro.core.conformance import conformance_workload
from repro.errors import BoundViolation
from repro.obs.spans import SCHEMAS_BY_MODEL, SpanOutcome, build_spans
from repro.obs.stream import (
    StreamingSpanEngine,
    span_sort_key,
    span_to_json,
    stream_spans,
)
from repro.sim import categories
from repro.workloads import scenarios
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, make_params


def span_variants():
    """Every registered protocol variant whose probes fold into spans."""
    return [
        variant
        for variant in all_variants()
        if variant.capabilities.kind == "protocol"
        and variant.capabilities.taxonomy is not None
    ]


def provision(variant, scenario: str, seed: int = 0):
    """One conformance scenario, built (full trace retained) but not run."""
    spec = conformance_workload(variant.capabilities.model, scenario)
    return provision_workload(variant, spec.with_seed(seed))


VARIANT_SCENARIOS = [
    (variant.name, scenario)
    for variant in span_variants()
    for scenario in ("deadlock", "clean")
]


class TestBatchParity:
    def test_suite_covers_every_span_schema(self) -> None:
        # if a new model gains a span schema, it must join this suite
        covered = {variant.capabilities.model for variant in span_variants()}
        assert set(SCHEMAS_BY_MODEL) <= covered

    @pytest.mark.parametrize(("name", "scenario"), VARIANT_SCENARIOS)
    def test_stream_spans_equals_build_spans(self, name: str, scenario: str) -> None:
        variant = get_variant(name)
        schema = SCHEMAS_BY_MODEL[variant.capabilities.model]
        provisioned = provision(variant, scenario)
        provisioned.run_to_quiescence()
        tracer = provisioned.system.simulator.tracer
        batch = build_spans(tracer, schema=schema)
        streamed = stream_spans(tracer, schema)
        if scenario == "deadlock":
            assert batch, f"{name}/{scenario} produced no probe computations"
        assert streamed == batch  # dataclass equality: every field, every hop

    @pytest.mark.parametrize(("name", "scenario"), VARIANT_SCENARIOS)
    def test_live_subscription_equals_build_spans(
        self, name: str, scenario: str
    ) -> None:
        # the monitor configuration: the engine folds events as the run
        # produces them, not from a replayed trace.
        variant = get_variant(name)
        schema = SCHEMAS_BY_MODEL[variant.capabilities.model]
        provisioned = provision(variant, scenario)
        tracer = provisioned.system.simulator.tracer
        live: list = []
        engine = StreamingSpanEngine(
            schema, n_vertices=provisioned.spec.n, on_span=live.append
        )
        engine.attach(tracer)
        provisioned.run_to_quiescence()
        engine.finish()
        engine.detach(tracer)
        batch = build_spans(tracer, schema=schema)
        assert sorted(live, key=span_sort_key) == batch
        assert engine.emitted == len(batch)
        assert not engine.violations

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_parity_across_seeds_on_mixed_workload(self, seed: int) -> None:
        # ping-pong produces all three outcomes (deadlock never, fizzled
        # and superseded both); parity must hold on the messy cases too.
        system = BasicSystem(n_vertices=6, seed=seed)
        scenarios.schedule_ping_pong(system, [(0, 1), (2, 3), (4, 5)], repetitions=5)
        system.run_to_quiescence()
        tracer = system.simulator.tracer
        streamed = stream_spans(tracer, n_vertices=6)
        assert streamed == build_spans(tracer)
        assert SpanOutcome.SUPERSEDED in {span.outcome for span in streamed}


#: churn workloads: (variant, spec, bound on simultaneously open spans).
#: Each initiator starts computation after computation, so most are
#: superseded while older ones of the same initiator are still open.
CHURN = {
    "bursty-41": ("basic", WorkloadSpec(family="bursty", n=41), 41),
    "ddb-hot-8": (
        "ddb",
        WorkloadSpec(
            family="ddb-hot",
            n=8,
            params=make_params(resources=32, load=4, window=25, resolve=0),
        ),
        None,
    ),
}


class TestChurnParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", list(CHURN))
    def test_stream_and_live_subscription_equal_build_spans(
        self, case: str, seed: int
    ) -> None:
        name, spec, peak_bound = CHURN[case]
        variant = get_variant(name)
        schema = SCHEMAS_BY_MODEL[variant.capabilities.model]
        provisioned = provision_workload(variant, spec.with_seed(seed))
        tracer = provisioned.system.simulator.tracer
        live: list = []
        engine = StreamingSpanEngine(schema, n_vertices=spec.n, on_span=live.append)
        engine.attach(tracer)
        provisioned.run_to_quiescence()
        engine.finish()
        engine.detach(tracer)
        batch = build_spans(tracer, schema=schema)
        assert stream_spans(tracer, schema, n_vertices=spec.n) == batch
        assert sorted(live, key=span_sort_key) == batch
        assert {span.outcome for span in batch} == set(SpanOutcome)
        assert not engine.violations
        if peak_bound is not None:
            assert engine.peak_open <= peak_bound


class TestBoundedMemory:
    def test_settled_spans_are_evicted(self) -> None:
        # 100 ping-pong repetitions on 4 pairs: 800 computations settle,
        # but only a handful are ever open at once.
        system = BasicSystem(n_vertices=8, seed=3, strict=False, trace=False)
        emitted: list = []
        engine = StreamingSpanEngine(n_vertices=8, on_span=emitted.append)
        engine.attach(system.simulator.tracer)
        scenarios.schedule_ping_pong(
            system, [(0, 1), (2, 3), (4, 5), (6, 7)], repetitions=100
        )
        system.run_to_quiescence()
        engine.finish()
        assert engine.emitted == len(emitted) == 800
        assert engine.open_computations == 0
        assert engine.peak_open <= 2 * 8, (
            f"peak_open {engine.peak_open} scales with run length, "
            "not with the open frontier -- eviction is broken"
        )

    def test_trace_false_run_buffers_nothing(self) -> None:
        system = BasicSystem(n_vertices=8, seed=3, strict=False, trace=False)
        engine = StreamingSpanEngine(n_vertices=8)
        engine.attach(system.simulator.tracer)
        scenarios.schedule_ping_pong(system, [(0, 1), (2, 3)], repetitions=20)
        system.run_to_quiescence()
        engine.finish()
        assert engine.emitted
        assert len(system.simulator.tracer) == 0

    def test_eviction_is_deferred_until_a_different_tag(self) -> None:
        # a drained + resolved tag must NOT be evicted by its own events:
        # the receiving handler may still send probes of that tag.
        tag_a = ProbeTag(initiator=0, sequence=1)
        tag_b = ProbeTag(initiator=1, sequence=1)
        emitted: list = []
        engine = StreamingSpanEngine(on_span=emitted.append)
        engine.on_event(_initiated(0.0, tag_a, vertex=0))
        engine.on_event(_sent(0.1, tag_a, source=0, target=1))
        engine.on_event(_net(0.1, tag_a, sent=True, sender=0, destination=1))
        engine.on_event(_net(0.15, tag_a, sent=False, sender=0, destination=1))
        engine.on_event(_received(0.2, tag_a, source=0, target=1))
        engine.on_event(_declared(0.2, tag_a, vertex=0))
        # resolved and drained, but nothing else has happened yet:
        assert emitted == []
        assert engine.open_computations == 1
        # the first event of a *different* tag proves the handler is done
        engine.on_event(_initiated(0.3, tag_b, vertex=1))
        assert [span.tag for span in emitted] == [tag_a]
        assert emitted[0].outcome is SpanOutcome.DEADLOCK
        assert engine.open_computations == 1  # tag_b is now open


class TestOnlineBounds:
    def test_duplicate_edge_probe_is_caught_at_the_event(self) -> None:
        tag = ProbeTag(initiator=0, sequence=1)
        seen: list[BoundViolation] = []
        engine = StreamingSpanEngine(on_violation=seen.append)
        engine.on_event(_sent(0.1, tag, source=0, target=1))
        assert not seen
        engine.on_event(_sent(0.2, tag, source=0, target=1))
        assert len(seen) == 1 and len(engine.violations) == 1
        assert seen[0].bound == "one-probe-per-edge"

    def test_strict_mode_raises_out_of_the_handler(self) -> None:
        tag = ProbeTag(initiator=0, sequence=1)
        engine = StreamingSpanEngine(strict_bounds=True)
        engine.on_event(_sent(0.1, tag, source=0, target=1))
        with pytest.raises(BoundViolation):
            engine.on_event(_sent(0.2, tag, source=0, target=1))

    def test_total_probe_budget_checked_online(self) -> None:
        # 2 vertices allow 2*(2-1) = 2 wait-for edges; a third *distinct*
        # edge (a sliced/corrupt trace) exceeds the total budget without
        # tripping the per-edge bound first.
        tag = ProbeTag(initiator=0, sequence=1)
        engine = StreamingSpanEngine(n_vertices=2, strict_bounds=True)
        engine.on_event(_sent(0.0, tag, source=0, target=1))
        engine.on_event(_sent(1.0, tag, source=1, target=0))
        with pytest.raises(BoundViolation) as exc:
            engine.on_event(_sent(2.0, tag, source=0, target=2))
        assert "probes-le-edges" in str(exc.value)


class TestSettledTraceHook:
    def test_eviction_records_obs_span_settled(self) -> None:
        system = BasicSystem(n_vertices=3, seed=0, trace=False)
        settled: list = []
        tracer = system.simulator.tracer
        tracer.subscribe(
            settled.append, categories=(categories.OBS_SPAN_SETTLED,)
        )
        engine = StreamingSpanEngine(n_vertices=3)
        engine.attach(tracer)
        for i in range(3):
            system.schedule_request(0.5 * i, i, [(i + 1) % 3])
        system.run_to_quiescence()
        engine.finish()
        assert len(settled) == engine.emitted > 0
        outcomes = {event["outcome"] for event in settled}
        assert SpanOutcome.DEADLOCK.value in outcomes
        for event in settled:
            assert isinstance(event["tag"], ProbeTag)
            assert event["probes_sent"] >= 0


class TestSpanJson:
    def test_span_to_json_is_serialisable_and_complete(self) -> None:
        import json

        system = BasicSystem(n_vertices=3, seed=0)
        for i in range(3):
            system.schedule_request(0.5 * i, i, [(i + 1) % 3])
        system.run_to_quiescence()
        spans = build_spans(system.simulator.tracer)
        declared = [s for s in spans if s.outcome is SpanOutcome.DEADLOCK]
        assert declared
        for span in spans:
            document = json.loads(json.dumps(span_to_json(span)))
            assert document["tag"] == str(span.tag)
            assert document["outcome"] == span.outcome.value
            assert document["probes_sent"] == span.probes_sent
            assert len(document["hops"]) == len(span.hops)
        detected = span_to_json(declared[0])
        assert detected["declared_by"] is not None
        assert detected["detection_latency"] > 0


# ---------------------------------------------------------------------------
# synthetic-event helpers (basic schema)
# ---------------------------------------------------------------------------


def _initiated(time: float, tag: ProbeTag, vertex: int):
    from repro.sim.trace import TraceEvent

    return TraceEvent(
        time, categories.BASIC_COMPUTATION_INITIATED, {"vertex": vertex, "tag": tag}
    )


def _sent(time: float, tag: ProbeTag, source: int, target: int):
    from repro.sim.trace import TraceEvent

    return TraceEvent(
        time,
        categories.BASIC_PROBE_SENT,
        {"source": source, "target": target, "tag": tag},
    )


def _received(time: float, tag: ProbeTag, source: int, target: int):
    from repro.sim.trace import TraceEvent

    return TraceEvent(
        time,
        categories.BASIC_PROBE_RECEIVED,
        {"source": source, "target": target, "tag": tag, "meaningful": True},
    )


def _declared(time: float, tag: ProbeTag, vertex: int):
    from repro.sim.trace import TraceEvent

    return TraceEvent(
        time, categories.BASIC_DEADLOCK_DECLARED, {"vertex": vertex, "tag": tag}
    )


def _net(time: float, tag: ProbeTag, *, sent: bool, sender: int, destination: int):
    from types import SimpleNamespace

    from repro.sim.trace import TraceEvent

    category = categories.NET_SENT if sent else categories.NET_DELIVERED
    return TraceEvent(
        time,
        category,
        {
            "sender": sender,
            "destination": destination,
            "message": SimpleNamespace(tag=tag),
        },
    )
