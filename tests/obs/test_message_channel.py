"""The monitor reads probe sends off the tracer's message channel.

:class:`~repro.obs.stream.StreamingSpanEngine` opens each probe hop in
its send observer, runs the online section 4 check there and keeps the
run's probes per edge, which :class:`~repro.obs.metrics.TransportTelemetry`
exports as ``repro_edge_probes_total``.  So an attached monitor routes no
``*.probe.sent`` record: with ``trace=False`` the handler's record costs
one membership test.  This suite pins that, checks the bound on the real
send path, and holds the three remaining views of a probe send (the
engine's per-edge counts, its spans and the system's probe accounting)
to each other and to the handlers' ``probe.sent`` records where a trace
keeps them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from typing import Any

import pytest

from repro._ids import ProbeTag
from repro.basic.messages import Probe
from repro.core import get_variant
from repro.core.assembly import build_runtime
from repro.errors import BoundViolation
from repro.live.transport import AsyncioTransport
from repro.obs.metrics import telemetry_for_variant
from repro.obs.spans import BASIC_SPAN_SCHEMA, SCHEMAS_BY_MODEL, ProbeComputationSpan
from repro.obs.stream import StreamingSpanEngine
from repro.sim import categories
from repro.sim.process import Process
from repro.workloads.provision import provision_workload
from repro.workloads.spec import get_family

#: churn on each model with a span schema: (variant, workload family).
CHURN = (("basic", "bursty"), ("ddb", "ddb-hot"))


def _transport(name: str, seed: int, trace: bool) -> Any:
    if name == "sim":
        return build_runtime(seed=seed, trace=trace).transport
    return AsyncioTransport(seed=seed, trace=trace, time_scale=0.002, max_wall_seconds=30.0)


def _monitored(
    variant_name: str, family: str, transport_name: str, *, seed: int = 0, trace: bool = True
) -> tuple[Any, Any, Any, list[ProbeComputationSpan]]:
    """One monitored run of ``family``'s example workload, to quiescence.

    Returns the system, its transport (closed), the telemetry bridge
    (finished) and every span the bridge settled.
    """
    variant = get_variant(variant_name)
    transport = _transport(transport_name, seed, trace)
    try:
        provisioned = provision_workload(
            variant, get_family(family).example.with_seed(seed), transport=transport
        )
        spans: list[ProbeComputationSpan] = []
        telemetry = telemetry_for_variant(
            transport, variant.capabilities, span_sink=spans.append
        )
        provisioned.run_to_quiescence()
        telemetry.finish()
    finally:
        transport.close()
    return provisioned.system, transport, telemetry, spans


class TestNothingRoutesProbeSent:
    @pytest.mark.parametrize(("variant_name", "family"), CHURN)
    def test_an_untraced_monitored_run_routes_no_probe_sent(
        self, variant_name: str, family: str
    ) -> None:
        variant = get_variant(variant_name)
        schema = SCHEMAS_BY_MODEL[variant.capabilities.model]
        transport = build_runtime(seed=0, trace=False).transport
        provisioned = provision_workload(
            variant, get_family(family).example, transport=transport
        )
        telemetry = telemetry_for_variant(transport, variant.capabilities)
        routes = transport.tracer.routes
        assert categories.BASIC_PROBE_SENT not in routes
        assert categories.DDB_PROBE_SENT not in routes
        for category in (schema.initiated, schema.probe_received, schema.declared):
            assert category in routes
        provisioned.run_to_quiescence()
        telemetry.finish()
        engine = telemetry.engines[variant.capabilities.model]
        # the hops were opened all the same, one per probe the system counted
        assert sum(engine.edge_probes.values()) == sum(
            provisioned.system.probes_per_computation.values()
        ) > 0
        assert len(transport.tracer) == 0


class _Silent(Process):
    def on_message(self, sender: Hashable, message: Any) -> None:
        pass


class TestBoundOnTheSendPath:
    def _wired(self, **engine_options: Any) -> tuple[Process, StreamingSpanEngine]:
        transport = build_runtime(seed=0, trace=False).transport
        sender, receiver = _Silent(0), _Silent(1)
        transport.register(sender)
        transport.register(receiver)
        engine = StreamingSpanEngine(BASIC_SPAN_SCHEMA, **engine_options)
        engine.attach(transport.tracer)
        return sender, engine

    def test_a_second_probe_on_one_edge_is_caught_at_its_send(self) -> None:
        seen: list[BoundViolation] = []
        sender, engine = self._wired(on_violation=seen.append)
        probe = Probe(tag=ProbeTag(initiator=0, sequence=1))
        sender.ctx.send(1, probe)
        assert not seen
        sender.ctx.send(1, probe)
        # recorded inside the send, before any delivery ran
        assert [violation.bound for violation in seen] == ["one-probe-per-edge"]
        assert engine.violations == seen
        assert engine.edge_probes == {(0, 1): 2}

    def test_strict_mode_raises_out_of_the_send(self) -> None:
        sender, _ = self._wired(strict_bounds=True)
        probe = Probe(tag=ProbeTag(initiator=0, sequence=1))
        sender.ctx.send(1, probe)
        with pytest.raises(BoundViolation, match="second probe over edge"):
            sender.ctx.send(1, probe)

    def test_other_messages_open_no_hop(self) -> None:
        sender, engine = self._wired()
        sender.ctx.send(1, "not a probe")
        assert engine.edge_probes == {}
        assert engine.open_computations == 0


@pytest.mark.parametrize("transport_name", ["sim", "live"])
@pytest.mark.parametrize(("variant_name", "family"), CHURN)
class TestOneProbeSendThreeViews:
    def test_edge_probe_series_match_the_traced_probe_sends(
        self, variant_name: str, family: str, transport_name: str
    ) -> None:
        _, transport, telemetry, _ = _monitored(variant_name, family, transport_name)
        model = get_variant(variant_name).capabilities.model
        schema = SCHEMAS_BY_MODEL[model]
        traced = Counter(
            str(schema.edge_of(event.details))
            for event in transport.tracer.events(schema.probe_sent)
        )
        exported = {
            series["labels"]["edge"]: series["value"]
            for series in telemetry.registry.snapshot()["repro_edge_probes_total"]["series"]
            if series["labels"]["model"] == model
        }
        assert traced, "the workload sent no probe"
        assert exported == traced

    def test_each_span_counts_the_probes_the_system_counted(
        self, variant_name: str, family: str, transport_name: str
    ) -> None:
        system, _, _, spans = _monitored(
            variant_name, family, transport_name, trace=False
        )
        counted = system.probes_per_computation
        assert spans and counted
        assert {span.tag: span.probes_sent for span in spans if span.probes_sent} == counted


@pytest.mark.parametrize(("variant_name", "family"), CHURN)
def test_a_live_attached_fold_stamps_both_send_times_at_the_send(
    variant_name: str, family: str
) -> None:
    _, _, _, spans = _monitored(variant_name, family, "live", trace=False)
    hops = [hop for span in spans for hop in span.hops]
    assert hops
    for hop in hops:
        assert hop.sent_at is not None
        assert hop.sent_at == hop.net_sent_at
        assert hop.queue_delay == 0.0
