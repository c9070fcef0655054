"""Cross-transport conformance: every variant, both scenarios, any backend.

One suite body drives :func:`repro.runner.run` on each transport.  The
base classes here (``EveryVariant``, ``AdaptivePolicy``,
``TraceExport``) carry the tests; each transport binds them by
subclassing with its ``transport`` name -- the simulator here, the
asyncio runtime in ``test_live_conformance.py``, the multi-process
cluster in ``tests/cluster/test_cluster_conformance.py``.  Live and
cluster interleavings are nondeterministic, but the paper's claims are
schedule-free: QRP2 soundness at the instant of declaration and QRP1
completeness must hold on *every* P4-legal delivery order, so zero
violations is a hard requirement on all three backends, not a
statistical one.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro import runner
from repro.core import all_variants, get_variant
from repro.errors import ConfigurationError
from repro.obs.export import events_to_jsonl, read_jsonl, validate_chrome
from repro.obs.spans import SCHEMAS_BY_MODEL
from repro.obs.stream import StreamingSpanEngine
from repro.runner import TRANSPORTS, RunReport, run
from repro.sim import categories
from repro.sim.trace import TraceEvent
from repro.workloads import scenarios
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


def _protocol_counts(events: list[TraceEvent]) -> Counter[str]:
    """Records per category, leaving out the cluster's own worker records."""
    return Counter(
        event.category for event in events if not event.category.startswith("cluster.")
    )


#: records of how far each detection computation got.  On a wall-clock
#: transport a process can start a computation before the next process
#: on the cycle has blocked, and that computation stops at the first
#: process that is not waiting; so these counts depend on the schedule,
#: and a trace is held to its own run's report for them, not to the
#: simulator's counts.
_SCHEDULE_DEPENDENT = frozenset(
    {
        categories.NET_SENT,
        categories.NET_DELIVERED,
        categories.BASIC_PROBE_SENT,
        categories.BASIC_PROBE_RECEIVED,
        categories.BASIC_DEADLOCK_DECLARED,
        categories.DDB_PROBE_SENT,
        categories.DDB_PROBE_RECEIVED,
        categories.DDB_DEADLOCK_DECLARED,
        categories.OR_DEADLOCK_DECLARED,
        categories.OBS_SPAN_SETTLED,
    }
)


def _workload_counts(counts: Counter[str]) -> dict[str, int]:
    return {name: n for name, n in counts.items() if name not in _SCHEDULE_DEPENDENT}


class TraceExport(_OnTransport):
    """``trace_out`` on one transport: the whole run's trace, every model."""

    @pytest.mark.parametrize("model", ["basic", "ddb", "ormodel"])
    def test_jsonl_round_trips_with_the_simulators_counts(
        self, model: str, tmp_path: Path
    ) -> None:
        """The trace logs the simulator's kinds of record, and the
        simulator's count of each workload record; the computations'
        records add up to the run's report, and the run quiesced, so
        every message and probe sent was received."""
        path = tmp_path / "trace.jsonl"
        report = run_on(self.transport, model, "deadlock", trace_out=path)
        assert report.ok, report.failures
        text = path.read_text()
        events = read_jsonl(path)
        assert events_to_jsonl(events) == text
        counts = _protocol_counts(events)
        declared = sum(
            n for name, n in counts.items() if name.endswith(".deadlock.declared")
        )
        assert declared == report.outcome.declarations > 0
        assert counts[categories.NET_SENT] == counts[categories.NET_DELIVERED]
        assert counts[categories.NET_DELIVERED] == report.messages_delivered
        assert counts[categories.BASIC_PROBE_SENT] == counts[categories.BASIC_PROBE_RECEIVED]
        assert counts[categories.DDB_PROBE_SENT] == counts[categories.DDB_PROBE_RECEIVED]
        assert counts[categories.OBS_SPAN_SETTLED] == report.spans_emitted
        run(model, "deadlock", transport="sim", trace_out=tmp_path / "sim.jsonl")
        sim = _protocol_counts(read_jsonl(tmp_path / "sim.jsonl"))
        assert counts.keys() == sim.keys()
        assert _workload_counts(counts) == _workload_counts(sim)

    @pytest.mark.parametrize("model", sorted(SCHEMAS_BY_MODEL))
    def test_chrome_export_validates(self, model: str, tmp_path: Path) -> None:
        path = tmp_path / "trace.json"
        report = run_on(self.transport, model, "deadlock", trace_out=path)
        document = json.loads(path.read_text())
        assert validate_chrome(document) == []
        assert document["otherData"]["model"] == model
        assert document["otherData"]["spans"] == report.spans_emitted > 0


class TestEveryVariantSim(EveryVariant):
    transport = "sim"


class TestAdaptivePolicySim(AdaptivePolicy):
    transport = "sim"


class TestTraceExportSim(TraceExport):
    transport = "sim"


@pytest.fixture
def no_backend(monkeypatch: pytest.MonkeyPatch) -> list[object]:
    """Records every backend :func:`run` builds; a rejection builds none."""
    built: list[object] = []
    make_transport = runner._make_transport

    def spy(*args: object, **kwargs: object) -> object:
        built.append(args)
        return make_transport(*args, **kwargs)

    monkeypatch.setattr(runner, "_make_transport", spy)
    return built


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_chrome_trace_of_a_model_without_spans_is_rejected(
    transport: str, tmp_path: Path, no_backend: list[object]
) -> None:
    path = tmp_path / "trace.json"
    with pytest.raises(ConfigurationError, match="no span schema"):
        run_on(transport, "ormodel", "deadlock", trace_out=path)
    assert no_backend == []
    assert not path.exists()


@pytest.mark.parametrize("transport", [name for name in TRANSPORTS if name != "sim"])
def test_profile_off_the_simulator_is_rejected(
    transport: str, no_backend: list[object]
) -> None:
    with pytest.raises(ConfigurationError, match="simulator"):
        run_on(transport, "basic", "deadlock", profile=True)
    assert no_backend == []


def test_sim_profile_rides_the_report_but_not_its_json() -> None:
    report = run("basic", "deadlock", profile=True)
    assert report.profile is not None and report.profile.events > 0
    assert "deliver Probe" in {entry.category for entry in report.profile.by_category}
    assert "profile" not in report.to_json()
    assert run("basic", "deadlock").profile is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    ("scenario", "n", "schedule"),
    [
        ("cycle", 3, lambda system: scenarios.schedule_cycle(system, [0, 1, 2])),
        (
            "figure-eight",
            5,
            lambda system: scenarios.schedule_figure_eight(
                system, shared=0, left=[1, 2], right=[3, 4]
            ),
        ),
        ("chain", 8, lambda system: scenarios.schedule_chain(system, list(range(8)))),
    ],
)
def test_run_trace_is_the_hand_built_systems_trace(
    scenario: str, n: int, schedule, seed: int, tmp_path: Path
) -> None:
    """The registry family traced through :func:`run` logs what the same
    system built and scheduled by hand logs, byte for byte, plus one
    ``obs.span.settled`` record per span the run's telemetry settled."""
    path = tmp_path / "trace.jsonl"
    report = run("basic", scenario, seed=seed, n_vertices=n, trace_out=path)
    system = get_variant("basic").build(n_vertices=n, seed=seed)
    schedule(system)
    system.run_to_quiescence()
    kept, settled = [], 0
    for line in path.read_text().splitlines(keepends=True):
        if json.loads(line)["category"] == categories.OBS_SPAN_SETTLED:
            settled += 1
        else:
            kept.append(line)
    assert settled == report.spans_emitted > 0
    assert "".join(kept) == events_to_jsonl(system.simulator.tracer)


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
