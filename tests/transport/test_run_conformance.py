"""Cross-transport conformance: every variant, both scenarios, any backend.

One suite body drives :func:`repro.runner.run` on each transport.  The
base classes here (``EveryVariant``, ``AdaptivePolicy``) carry the
tests; each transport binds them by subclassing with its ``transport``
name -- the simulator here, the asyncio runtime in
``test_live_conformance.py``, the multi-process cluster in
``tests/cluster/test_cluster_conformance.py``.  Live and cluster
interleavings are nondeterministic, but the paper's claims are
schedule-free: QRP2 soundness at the instant of declaration and QRP1
completeness must hold on *every* P4-legal delivery order, so zero
violations is a hard requirement on all three backends, not a
statistical one.
"""

from __future__ import annotations

import pytest

from repro.core import all_variants, get_variant
from repro.obs.spans import SCHEMAS_BY_MODEL
from repro.obs.stream import StreamingSpanEngine
from repro.runner import RunReport, run
from repro.workloads.provision import provision_workload, resolve_scenario_spec

#: compressed clock for wall-clock backends: 1 virtual unit = 2 ms wall.
TIME_SCALE = 0.002
#: generous per-run wall budget; a hang is a failure, not a wait.
TIMEOUT = 20.0
SEEDS = (0, 1, 2)


def run_on(transport: str, name: str, scenario: str, **kwargs) -> RunReport:
    return run(
        name,
        scenario,
        transport=transport,
        time_scale=TIME_SCALE,
        timeout=TIMEOUT,
        **kwargs,
    )


def _variant_ids() -> list[str]:
    return [variant.name for variant in all_variants()]


def _policy_variant_ids() -> list[str]:
    """Variants with an initiation seam: overlays bind to a host system
    and take no policy (run() rejects the combination)."""
    return [
        variant.name
        for variant in all_variants()
        if variant.capabilities.kind != "overlay"
    ]


class _OnTransport:
    transport: str

    @pytest.fixture(scope="class", autouse=True)
    def _warm_up(self) -> None:
        """One throwaway run before any timed assertion.

        The first run pays import, event-loop and (cluster) worker spawn
        costs; on a compressed clock those wall milliseconds masquerade
        as virtual time and would skew timing-sensitive detectors
        (timeout).
        """
        run_on(self.transport, "basic", "clean")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", _variant_ids())
class EveryVariant(_OnTransport):
    def test_deadlock_scenario_detects_soundly(self, name: str, seed: int) -> None:
        report = run_on(self.transport, name, "deadlock", seed=seed)
        assert report.detected, f"{name} missed a genuine deadlock on {self.transport}"
        assert report.sound, (
            f"{name} violated instant-of-declaration soundness on {self.transport}"
        )
        assert report.ok, report.failures
        assert report.first_declaration_at is not None
        assert report.first_declaration_at > 0.0
        if self.transport == "cluster":
            assert report.workers is not None and report.workers >= 1
        else:
            assert report.workers is None
        if get_variant(name).capabilities.taxonomy is not None:
            assert report.detection_latencies
            assert all(latency > 0.0 for latency in report.detection_latencies)

    def test_clean_scenario_stays_silent(self, name: str, seed: int) -> None:
        report = run_on(self.transport, name, "clean", seed=seed)
        assert not report.detected, f"{name} declared on a clean {self.transport} run"
        assert report.sound
        assert report.ok, report.failures
        assert report.first_declaration_at is None
        assert report.detection_latencies == ()


@pytest.mark.parametrize("name", _policy_variant_ids())
class AdaptivePolicy(_OnTransport):
    """The adaptive initiation policy on one transport."""

    def test_adaptive_deadlock_detects_soundly(self, name: str) -> None:
        report = run_on(self.transport, name, "deadlock", policy="adaptive")
        assert report.detected, f"{name} missed a deadlock under the adaptive policy"
        assert report.sound

    def test_adaptive_clean_stays_silent(self, name: str) -> None:
        report = run_on(self.transport, name, "clean", policy="adaptive")
        assert not report.detected
        assert report.sound


class TestEveryVariantSim(EveryVariant):
    transport = "sim"


class TestAdaptivePolicySim(AdaptivePolicy):
    transport = "sim"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    ("name", "scenario"), [("basic", "deadlock"), ("ddb", "deadlock"), ("basic", "random")]
)
def test_sim_latencies_are_the_span_engine_latencies(
    name: str, scenario: str, seed: int
) -> None:
    """The report's one definition of detection latency: initiation to
    declaration, per computation, exactly as the streaming span fold
    measures it -- checked on the deterministic simulator."""
    variant = get_variant(name)
    report = run(name, scenario, transport="sim", seed=seed)
    provisioned = provision_workload(
        variant, resolve_scenario_spec(variant, scenario, seed=seed)
    )
    spans: list = []
    engine = StreamingSpanEngine(
        SCHEMAS_BY_MODEL[variant.capabilities.model], on_span=spans.append
    )
    engine.attach(provisioned.system.transport.tracer)
    provisioned.run_to_quiescence()
    engine.finish()
    expected = tuple(
        span.detection_latency for span in spans if span.detection_latency is not None
    )
    assert expected, "the scenario must declare at least once"
    assert report.detection_latencies == expected
    assert report.first_declaration_at == provisioned.summarize().first_declaration_at
