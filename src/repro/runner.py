"""One run path: any registered variant, any scenario, any transport.

:func:`run` is what ``repro run <variant> --transport
sim|live|cluster`` executes.  It resolves the scenario to a workload spec
(:func:`~repro.workloads.provision.resolve_scenario_spec`: the
``deadlock`` / ``clean`` conformance pair, ``random``, or any registered
family name), provisions it on the chosen backend
(:func:`~repro.workloads.provision.provision_workload`), and drives the
run in ticks of ``interval`` virtual units until the transport quiesces
or the wall-clock ``timeout`` expires.  Overlay variants (the E8
baselines) bind to a host system of their own, so they still run their
``conformance`` callable in one piece.

Monitoring is an observer, not a separate runner: the standard
telemetry bridge (:func:`~repro.obs.metrics.telemetry_for_variant`)
rides the transport's tracer whichever backend runs, and after every
tick it can rewrite a Prometheus text file, stream settled spans and
metric snapshots as JSONL, and print a one-line console status.  The
same span fold supplies the report's detection latencies (initiation to
declaration, virtual units) and the section 4 bound check; the SLO gate
compares those latencies against ``slo`` units.

Two more views of the same run are opt-in.  ``trace_out`` turns the
backend tracer's log on and writes the whole trace when the run ends:
Chrome/Perfetto JSON for a ``.json`` path, lossless JSONL otherwise.
``profile`` times the simulator's event loop
(:func:`~repro.obs.profile.profiling`) and puts the result on the report.
Every output path is checked before the backend is built, so a path that
cannot be written fails the run before a cluster spawns its workers.

This module sits above every tier (it imports both ``live`` and
``cluster``), next to :mod:`repro.cli`.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.cluster.transport import ClusterTransport
from repro.core.assembly import build_runtime
from repro.core.conformance import CONFORMANCE_SCENARIOS, ConformanceOutcome
from repro.core.registry import get_variant
from repro.core.scheduling import PolicySpec, coerce_policy_spec
from repro.core.transport import Transport
from repro.errors import ConfigurationError, SimulationError
from repro.live.transport import AsyncioTransport
from repro.obs.export import write_chrome, write_jsonl
from repro.obs.metrics import TransportTelemetry, telemetry_for_variant
from repro.obs.profile import ProfileReport, profiling
from repro.obs.spans import SCHEMAS_BY_MODEL, ProbeComputationSpan
from repro.obs.stream import span_to_json
from repro.sim.transport import SimTransport
from repro.workloads.provision import provision_workload, resolve_scenario_spec

#: backend names :func:`run` accepts.
TRANSPORTS: tuple[str, ...] = ("sim", "live", "cluster")


def _over_slo(latencies: Iterable[float], slo: float | None) -> int:
    return 0 if slo is None else sum(1 for latency in latencies if latency > slo)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one run, for humans, JSON artifacts, and exit codes."""

    variant: str
    scenario: str
    transport: str
    seed: int
    outcome: ConformanceOutcome
    #: per-computation detection latencies, virtual units from initiation
    #: to declaration, as the telemetry span fold measured them.
    detection_latencies: tuple[float, ...]
    #: online section 4 bound violations recorded by the span engines.
    bound_violations: int
    #: spans settled during the run (incl. the final flush).
    spans_emitted: int
    #: observer ticks (one per drive slice).
    ticks: int
    #: deliveries the telemetry bridge observed (it attaches before the
    #: first send, so every delivery of the run).
    messages_delivered: int
    wall_seconds: float
    #: the detection-latency SLO in virtual units (``None`` = off).
    slo: float | None = None
    #: worker OS processes spawned (cluster only; ``None`` elsewhere).
    workers: int | None = None
    #: the simulator profile when the run asked for one.  Wall-clock
    #: numbers, so it stays out of :meth:`to_json`.
    profile: ProfileReport | None = None

    @property
    def first_declaration_at(self) -> float | None:
        """Virtual time of the first declaration (``None`` if silent)."""
        return self.outcome.first_declaration_at

    @property
    def detected(self) -> bool:
        return self.outcome.declarations > 0

    @property
    def sound(self) -> bool:
        return self.outcome.soundness_violations == 0

    @property
    def slo_violations(self) -> int:
        return _over_slo(self.detection_latencies, self.slo)

    @property
    def failures(self) -> tuple[str, ...]:
        """Why the gate fails; empty when the run is ok."""
        reasons: list[str] = []
        if not self.sound:
            reasons.append("declaration without a genuine deadlock (QRP2 violated)")
        if self.scenario == "deadlock" and not self.detected:
            reasons.append("genuine deadlock went undetected (QRP1 violated)")
        if self.scenario not in CONFORMANCE_SCENARIOS and self.outcome.complete is False:
            reasons.append("workload left a deadlock undetected (QRP1 violated)")
        if self.bound_violations:
            reasons.append(f"{self.bound_violations} section 4 probe-bound violation(s)")
        if self.slo_violations:
            reasons.append(
                f"{self.slo_violations} detection latency(ies) over the "
                f"{self.slo:g}-unit SLO"
            )
        return tuple(reasons)

    @property
    def ok(self) -> bool:
        """The exit gate: sound, within bounds and SLO, the dealt deadlock
        detected, and any registry workload complete at quiescence."""
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro.run-report/1",
            "variant": self.variant,
            "scenario": self.scenario,
            "transport": self.transport,
            "seed": self.seed,
            "ok": self.ok,
            "failures": list(self.failures),
            "detected": self.detected,
            "sound": self.sound,
            "declarations": self.outcome.declarations,
            "soundness_violations": self.outcome.soundness_violations,
            "complete": self.outcome.complete,
            "undetected_components": self.outcome.undetected_components,
            "first_declaration_at": self.first_declaration_at,
            "detection_latencies": list(self.detection_latencies),
            "bound_violations": self.bound_violations,
            "slo": self.slo,
            "slo_violations": self.slo_violations,
            "spans_emitted": self.spans_emitted,
            "ticks": self.ticks,
            "messages_delivered": self.messages_delivered,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
        }


def check_writable(*paths: str | Path | None) -> None:
    """Raise :class:`~repro.errors.ConfigurationError`, naming the path,
    for the first output path that cannot be opened for writing.

    ``None`` entries are skipped.  The check opens in append mode: it
    creates a missing file but never truncates an existing one.
    """
    for path in paths:
        if path is None:
            continue
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as error:
            raise ConfigurationError(
                f"cannot open {path} for writing: {error.strerror or error}"
            ) from error


def _make_transport(
    name: str,
    *,
    seed: int = 0,
    time_scale: float = 0.005,
    timeout: float = 60.0,
    tcp: bool = False,
) -> Transport:
    """Build one backend by name, with the trace log off (observers
    subscribe by category, so nothing needs buffering)."""
    if name == "sim":
        return build_runtime(seed=seed, trace=False).transport
    if name == "live":
        return AsyncioTransport(
            seed=seed, trace=False, time_scale=time_scale, max_wall_seconds=timeout
        )
    if name == "cluster":
        return ClusterTransport(
            seed=seed,
            trace=False,
            time_scale=time_scale,
            max_wall_seconds=timeout,
            channel="tcp" if tcp else "unix",
        )
    raise ConfigurationError(
        f"unknown transport {name!r}; choose from {', '.join(TRANSPORTS)}"
    )


def _render_tick(
    transport: Transport,
    telemetry: TransportTelemetry,
    declarations: int,
    slo: float | None,
    console: IO[str],
) -> None:
    over = _over_slo(telemetry.detection_latencies, slo)
    status = "off" if slo is None else f"VIOLATED x{over}" if over else "ok"
    depths = telemetry.in_flight_by_destination()
    engines = telemetry.engines.values()
    open_comps = sum(engine.open_computations for engine in engines)
    settled = sum(engine.emitted for engine in engines)
    per_node = " ".join(f"{node}:{int(depth)}" for node, depth in sorted(depths.items()))
    console.write(
        f"t={transport.now:8.1f}u  in-flight={int(sum(depths.values())):3d}"
        f"  open={open_comps:3d}  settled={settled:4d}"
        f"  declared={declarations:3d}  slo={status}"
        + (f"  queues[{per_node}]" if per_node else "")
        + "\n"
    )
    console.flush()


def run(
    variant_name: str,
    scenario: str = "deadlock",
    *,
    transport: str | Transport = "sim",
    seed: int = 0,
    policy: PolicySpec | str | None = None,
    n_vertices: int | None = None,
    duration: float | None = None,
    time_scale: float = 0.005,
    timeout: float = 60.0,
    tcp: bool = False,
    interval: float = 100.0,
    slo: float | None = None,
    metrics_out: str | Path | None = None,
    spans_out: str | Path | None = None,
    snapshots_out: str | Path | None = None,
    trace_out: str | Path | None = None,
    profile: bool = False,
    console: IO[str] | None = None,
) -> RunReport:
    """Run one scenario of one variant on one transport, observed.

    Parameters
    ----------
    transport:
        ``"sim"``, ``"live"`` or ``"cluster"`` (built with ``seed``,
        ``time_scale``, ``timeout`` and ``tcp``), or a ready
        :class:`~repro.core.transport.Transport` instance to adopt.  The
        run closes it either way.
    n_vertices / duration:
        Override the workload's topology size and horizon (virtual
        units); by default both come from the family's example spec.
        Overlay variants run their fixed conformance pair and reject
        them, as they reject a ``policy``.
    timeout:
        Wall-clock budget for the whole run; a run that has not quiesced
        by then raises :class:`~repro.errors.SimulationError`.
    interval:
        Virtual units per drive slice; the observer ticks after each.
    slo:
        Detection-latency SLO in virtual units; ``None`` disables it.
    metrics_out / spans_out / snapshots_out:
        Prometheus text file (rewritten each tick), settled-span JSONL
        stream, and metrics-snapshot JSONL stream.
    trace_out:
        Write the run's full trace here when it ends: Chrome/Perfetto
        JSON when the name ends in ``.json`` (basic and DDB models, which
        have a span schema), lossless JSONL otherwise (every model).
    profile:
        Profile the simulator's event loop into :attr:`RunReport.profile`
        (the ``sim`` transport only).
    console:
        Where to print one status line per tick; ``None`` prints nothing.
    """
    if interval <= 0:
        raise ConfigurationError(f"interval must be positive, got {interval}")
    variant = get_variant(variant_name)
    policy_spec = coerce_policy_spec(policy)
    overlay = variant.capabilities.kind == "overlay"
    if overlay and (policy_spec, n_vertices, duration) != (None, None, None):
        raise ConfigurationError(
            f"variant {variant_name!r} is an overlay bound to its fixed "
            "conformance host: a policy, size or duration cannot apply"
        )
    backend_name = transport if isinstance(transport, str) else transport.name
    if profile and backend_name != "sim":
        raise ConfigurationError(
            f"the profiler times the simulator's event loop; transport "
            f"{backend_name!r} has none (use 'sim')"
        )
    model = variant.capabilities.model
    chrome = trace_out is not None and str(trace_out).endswith(".json")
    if chrome and model not in SCHEMAS_BY_MODEL:
        raise ConfigurationError(
            f"a Chrome trace (.json) draws probe-computation spans, and model "
            f"{model!r} has no span schema; write JSONL (any other suffix)"
        )
    # Resolve and check the outputs before building the backend, so a bad
    # scenario or an unwritable path fails fast instead of after cluster
    # bring-up.
    spec = (
        None
        if overlay
        else resolve_scenario_spec(
            variant, scenario, seed=seed, n_vertices=n_vertices, duration=duration
        )
    )
    check_writable(metrics_out, spans_out, snapshots_out, trace_out)
    backend = (
        _make_transport(
            transport, seed=seed, time_scale=time_scale, timeout=timeout, tcp=tcp
        )
        if isinstance(transport, str)
        else transport
    )
    started = time.perf_counter()
    ticks = 0
    with ExitStack() as cleanup:
        cleanup.callback(backend.close)
        if trace_out is not None:
            backend.tracer.enabled = True
        spans_file = (
            None if spans_out is None else cleanup.enter_context(open(spans_out, "w"))
        )
        snapshots_file = (
            None
            if snapshots_out is None
            else cleanup.enter_context(open(snapshots_out, "w"))
        )

        def on_span(span: ProbeComputationSpan) -> None:
            if spans_file is not None:
                spans_file.write(json.dumps(span_to_json(span), sort_keys=True) + "\n")

        telemetry = telemetry_for_variant(
            backend,
            variant.capabilities,
            # The probes-le-edges budget is in vertices: basic model only.
            n_vertices=spec.n if spec is not None and model == "basic" else None,
            span_sink=on_span,
        )

        def export() -> None:
            if metrics_out is not None:
                Path(metrics_out).write_text(telemetry.render_prometheus())
            if snapshots_file is not None:
                snapshots_file.write(telemetry.snapshot_line(backend.now) + "\n")

        provisioned = (
            None
            if spec is None
            else provision_workload(variant, spec, transport=backend, policy=policy_spec)
        )
        profiler = (
            cleanup.enter_context(profiling(backend.simulator))
            if profile and isinstance(backend, SimTransport)
            else None
        )
        if provisioned is None:
            outcome = variant.conformance(scenario, seed, transport=backend)
        else:
            deadline = started + timeout
            while True:
                backend.run(until=backend.now + interval)
                ticks += 1
                export()
                if console is not None:
                    _render_tick(
                        backend,
                        telemetry,
                        len(provisioned.system.declarations),
                        slo,
                        console,
                    )
                if backend.quiescent:
                    break
                if time.perf_counter() >= deadline:
                    raise SimulationError(
                        f"run did not quiesce within timeout={timeout} wall "
                        f"seconds (virtual t={backend.now:.1f})"
                    )
            outcome = provisioned.summarize()
        profile_report = None if profiler is None else profiler.report()
        telemetry.finish()
        export()
        if trace_out is not None:
            if chrome:
                write_chrome(trace_out, backend.tracer, schema=SCHEMAS_BY_MODEL[model])
            else:
                write_jsonl(trace_out, backend.tracer)
        delivered = telemetry.messages_delivered
        workers = (
            len(backend.worker_processes())
            if isinstance(backend, ClusterTransport)
            else None
        )
    return RunReport(
        variant=variant_name,
        scenario=scenario,
        transport=transport if isinstance(transport, str) else backend.name,
        seed=seed,
        outcome=outcome,
        detection_latencies=tuple(telemetry.detection_latencies),
        bound_violations=telemetry.bound_violations,
        spans_emitted=sum(engine.emitted for engine in telemetry.engines.values()),
        ticks=ticks,
        messages_delivered=delivered,
        wall_seconds=time.perf_counter() - started,
        slo=slo,
        workers=workers,
        profile=profile_report,
    )
