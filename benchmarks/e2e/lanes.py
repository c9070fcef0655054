"""The five end-to-end workloads, one repetition of each, and their metrics.

A repetition ("rep") builds a fresh system through public APIs only --
``get_variant``, ``provision_workload``, ``build_runtime(trace=False)``,
``AsyncioTransport``, ``ClusterTransport`` and ``telemetry_for_variant``.
Set-up ends with ``transport.run(max_events=0)``, which spawns the
cluster's workers and fixes the live clock's origin; the timed drive is
the ``run_to_quiescence`` call after it.  Every rep is gated: it must be
sound, complete at quiescence, within the section 4 probe bound, free of
telemetry bound violations and, on the deterministic sim lanes, make the
same number of declarations every time.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.transport import ClusterTransport
from repro.core.assembly import build_runtime
from repro.core.registry import get_variant
from repro.errors import ReproError
from repro.live.transport import AsyncioTransport
from repro.obs.metrics import telemetry_for_variant
from repro.workloads.provision import ProvisionedWorkload, provision_workload
from repro.workloads.spec import WorkloadSpec, make_params

#: wall-clock budget of one live or cluster drive; a stalled rep fails
#: after this instead of hanging the run.
DRIVE_BUDGET_S = 20.0
#: every lane keeps the transports' default ``FixedDelay(1.0)``.
NOMINAL_DELAY_UNITS = 1.0
#: calibration-loop speed (iterations/s) of the reference host; set-up
#: times are reported as seconds on a host this fast.
REFERENCE_OPS_PER_S = 5e6


@dataclass(frozen=True)
class Lane:
    """One end-to-end workload: a variant, a workload spec and a transport."""

    name: str
    variant: str
    spec: WorkloadSpec
    #: ``"sim"``, ``"live"`` or ``"cluster"``.
    transport: str
    #: reps every run makes, whatever the time limit.  The latency and
    #: probe metrics are taken over exactly these, so which seeds they
    #: cover does not depend on the host's speed.
    reps: int = 1
    #: attach ``telemetry_for_variant``, as ``repro monitor`` does.
    monitored: bool = False
    #: declarations every rep must make (``None``: the count follows the seed).
    declarations: int | None = None
    #: |E| of a cycle lane's wait-for graph, the section 4 per-computation
    #: probe bound (``None``: checked by telemetry, or not at all).
    edges: int | None = None

    @property
    def closing_due(self) -> float:
        """Virtual time the cycle's closing request is due (``schedule_cycle``)."""
        return (self.spec.n - 1) * 0.5


def _cycle(n: int) -> WorkloadSpec:
    return WorkloadSpec(family="cycle", n=n)


LANES: dict[str, Lane] = {
    lane.name: lane
    for lane in (
        Lane("sim-cycle", "basic", _cycle(256), "sim", reps=8, declarations=256, edges=256),
        Lane(
            "sim-bursty-mon",
            "basic",
            WorkloadSpec(family="bursty", n=201),
            "sim",
            reps=34,
            monitored=True,
            declarations=3,
        ),
        # Detection only: with victim abort and restart (resolve=1) about
        # one rep in a hundred declares a process that is not deadlocked
        # (README.md, "Known limits"; ``replay_ddb_qrp2.py``), and the
        # lane must not fail.  Small reps, many of them: at resources=256
        # window=400 a detection-only rep takes 0.5 s and declares about
        # twice, and over ten seeds the median latency flipped between 1
        # and 2 units.
        Lane(
            "sim-ddb-hot",
            "ddb",
            WorkloadSpec(
                family="ddb-hot",
                n=8,
                params=make_params(resources=32, load=4, window=25, resolve=0),
            ),
            "sim",
            reps=250,
        ),
        # 16 vertices keep the loop below saturation at the default
        # 5 ms/unit, so detection latency sits at its pacing floor.
        Lane("live-cycle-mon", "basic", _cycle(16), "live", reps=24, monitored=True, edges=16),
        Lane("cluster-cycle2", "basic", _cycle(2), "cluster", reps=60, edges=2),
    )
}


@dataclass
class Rep:
    """What one repetition measured and whether it passed its gates."""

    seed: int
    setup_s: float = 0.0
    #: the ``run(max_events=0)`` share of set-up (cluster worker bring-up).
    bringup_s: float = 0.0
    drive_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0
    #: host speed around the rep (geometric mean of two calibrations).
    calib_ops_per_s: float = 0.0
    declarations: int = 0
    #: detection latencies, in virtual units (see ``_observe``).
    latencies: list[float] = field(default_factory=list)
    #: probes sent by every computation.
    probes: list[int] = field(default_factory=list)
    #: how late the closing request ran: formation minus due time, in units.
    late_units: float = 0.0
    #: wall milliseconds per virtual unit (the transport's ``time_scale``;
    #: 0 on the simulator, whose clock is virtual only).
    unit_ms: float = 0.0
    #: the rep raised (it failed to run).
    error: str | None = None
    #: the rep ran but a gate rejected its output.
    incorrect: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.incorrect is not None


def _transport(lane: Lane, seed: int) -> Any:
    if lane.transport == "sim":
        return build_runtime(seed=seed, trace=False).transport
    if lane.transport == "live":
        return AsyncioTransport(seed=seed, trace=False, max_wall_seconds=DRIVE_BUDGET_S)
    # Loopback TCP, not Unix sockets: the benchmark may write only inside
    # its checkout, so the socket file would live there too, and the
    # checkout's path may exceed the 107-byte AF_UNIX limit.
    return ClusterTransport(
        seed=seed, trace=False, max_wall_seconds=DRIVE_BUDGET_S, channel="tcp"
    )


def calibrate(size: int = 40_000) -> float:
    """Iterations per second of a fixed pure-python loop.

    Multiplying a CPU time by it turns the time into a count of
    calibration iterations, which cancels the host's speed: on a shared
    machine that speed swings by a quarter within seconds, and across
    machines by more.  Set-up times are scaled the same way, to seconds
    at ``REFERENCE_OPS_PER_S``.
    """
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(size):
        total = (total + i * i) % 1_000_003
        table[i & 1023] = total
    return size / (time.perf_counter() - start)


def run_rep(lane: Lane, seed: int, drive_marks: Any | None = None) -> Rep:
    """Set up, drive and gate one repetition of ``lane`` on ``seed``.

    ``drive_marks`` (a span recorder) is told where the drive starts and
    ends, so its spans can be split into set-up and drive.  The host's
    speed is calibrated just before and just after the rep.
    """
    rep = Rep(seed=seed)
    variant = get_variant(lane.variant)
    spec = lane.spec.with_seed(seed)
    speed = calibrate()
    started = time.perf_counter()
    transport = _transport(lane, seed)
    rep.unit_ms = getattr(transport, "time_scale", 0.0) * 1000.0
    try:
        run = provision_workload(variant, spec, transport=transport)
        telemetry = (
            telemetry_for_variant(transport, variant.capabilities, n_vertices=spec.n)
            if lane.monitored
            else None
        )
        bringup = time.perf_counter()
        transport.run(max_events=0)
        ready = time.perf_counter()
        rep.bringup_s = ready - bringup
        rep.setup_s = ready - started
        clock = getattr(transport, "simulator", transport)
        events = clock.events_executed
        if drive_marks is not None:
            drive_marks.begin_drive()
        cpu = time.process_time()
        wall = time.perf_counter()
        run.run_to_quiescence()
        rep.drive_s = time.perf_counter() - wall
        rep.cpu_s = time.process_time() - cpu
        if drive_marks is not None:
            drive_marks.end_drive()
        rep.events = clock.events_executed - events
        violations = 0
        if telemetry is not None:
            telemetry.finish()
            violations = telemetry.bound_violations
        _observe(lane, run.system, rep)
        rep.incorrect = _gate(lane, run, rep, violations)
    except (ReproError, OSError) as error:
        rep.error = f"{type(error).__name__}: {error}"
    finally:
        transport.close()
    rep.calib_ops_per_s = math.sqrt(speed * calibrate())
    return rep


def _observe(lane: Lane, system: Any, rep: Rep) -> None:
    """Read latencies and probe counts from the system's own records."""
    rep.declarations = len(system.declarations)
    rep.probes = list(system.probes_per_computation.values())
    formed = system.deadlock_formed_at
    if lane.transport == "sim":
        # A node keeps the first formation time it ever had, so only its
        # first declaration is timed against it.
        first: dict[Any, float] = {}
        for declaration in system.declarations:
            first.setdefault(_declarer(declaration), declaration.time)
        rep.latencies = [
            declared - formed[node] for node, declared in first.items() if node in formed
        ]
        return
    # Open loop: time each detection from when the closing request was
    # due, so a generator running late shows up as latency.
    due = lane.closing_due
    rep.latencies = [declaration.time - due for declaration in system.declarations]
    rep.late_units = min(formed.values()) - due


def _declarer(declaration: Any) -> Any:
    """The vertex (basic) or process (ddb) a declaration names."""
    return declaration.process if hasattr(declaration, "process") else declaration.vertex


def _gate(lane: Lane, run: ProvisionedWorkload, rep: Rep, violations: int) -> str | None:
    outcome = run.summarize()
    if outcome.soundness_violations:
        return f"{outcome.soundness_violations} unsound declarations (QRP2)"
    if not outcome.complete:
        return f"{outcome.undetected_components} undetected dark components (QRP1)"
    if lane.declarations is not None and rep.declarations != lane.declarations:
        return f"{rep.declarations} declarations, expected {lane.declarations}"
    if lane.edges is not None and max(rep.probes, default=0) > lane.edges:
        return f"a computation sent {max(rep.probes)} probes, more than |E|={lane.edges}"
    if violations:
        return f"{violations} section 4 bound violations reported by telemetry"
    return None


def measure(
    lane: Lane,
    seed: int,
    seconds: float,
    rep: Callable[[Lane, int], Any] = run_rep,
    at_least: int = 1,
) -> list[Any]:
    """Run reps on seeds ``seed``, ``seed + 1``, ... until ``seconds`` pass.

    At least ``at_least`` reps run.  Rep ``i`` uses seed ``seed + i``, so
    a seed fixes every input of the run.  A full collection between reps
    keeps one rep's garbage out of the next rep's timings.
    """
    results: list[Any] = []
    deadline = time.perf_counter() + seconds
    while len(results) < at_least or time.perf_counter() < deadline:
        results.append(rep(lane, seed + len(results)))
        gc.collect()
    return results


def percentile(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile (0 < share < 1), in ``statistics.quantiles``' method."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(share * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(lane: Lane, reps: Sequence[Rep]) -> dict[str, float]:
    """The end-to-end metrics of ``BENCHMARK.json``, over the reps that ran.

    Timings are medians over every rep, scaled by the host speed measured
    around each rep (see :func:`calibrate`).  Latencies and probe counts
    come from the first ``lane.reps`` reps only, which every run makes, so
    on the deterministic sim lanes they repeat exactly for a given seed.
    """
    ran = [rep for rep in reps if rep.error is None]
    fixed = [rep for rep in reps[: lane.reps] if rep.error is None]
    latencies = [value for rep in fixed for value in rep.latencies]
    probes = [count for rep in fixed for count in rep.probes]
    return {
        "setup_s": statistics.median(
            rep.setup_s * rep.calib_ops_per_s / REFERENCE_OPS_PER_S for rep in ran
        ),
        "cpu_ops_per_event": statistics.median(
            rep.cpu_s * rep.calib_ops_per_s / rep.events for rep in ran
        ),
        "detect_units_p50": statistics.median(latencies),
        "detect_units_p90": percentile(latencies, 0.9),
        "probes_per_computation": sum(probes) / len(probes),
        "peak_rss_mb": peak_rss_mb(),
    }


def host_rates(lane: Lane, reps: Sequence[Rep]) -> dict[str, float]:
    """Reported beside the metrics: the same runs in wall-clock units.

    These follow the host's speed, so they are not gated; the live and
    cluster lanes add their detection latency and generator lateness in ms.
    """
    ran = [rep for rep in reps if rep.error is None]
    fixed = [rep for rep in reps[: lane.reps] if rep.error is None]
    calib = statistics.median(rep.calib_ops_per_s for rep in ran)
    events_per_s = statistics.median(rep.events / rep.drive_s for rep in ran)
    rates = {
        "setup_wall_s": statistics.median(rep.setup_s for rep in ran),
        "events_per_s": events_per_s,
        "cpu_us_per_event": statistics.median(rep.cpu_s / rep.events * 1e6 for rep in ran),
        "calib_ops_per_s": calib,
        "events_per_calib_op": events_per_s / calib,
        "latency_samples": float(sum(len(rep.latencies) for rep in fixed)),
    }
    if lane.transport != "sim":
        ms = [value * rep.unit_ms for rep in fixed for value in rep.latencies]
        rates["detect_ms_p50"] = statistics.median(ms)
        rates["detect_ms_p90"] = percentile(ms, 0.9)
        rates["late_ms_p50"] = statistics.median(rep.late_units * rep.unit_ms for rep in ran)
    return rates
