"""E8 -- the paper's motivating claim: correct AND practical.

The introduction quotes Gligor & Shattuck (1980): "few of these protocols
are correct and fewer appear to be practical."  This experiment runs two
workload families under four detectors:

* **random** -- random AND-requests producing genuine deadlocks plus
  churn.  Tests whether detectors find the real deadlocks (all do) and
  whether long-but-finite waits fool them (timeout's failure mode).
* **ping-pong** -- alternating opposite waits that *never* coexist: no
  deadlock ever exists, but any detector that combines observations from
  different instants sees a cycle.  This is the snapshot-inconsistency
  failure mode of centralized collection and path pushing.

Detectors compared on both: the paper's probe computation (immediate
initiation), centralized periodic WFG collection, Obermarck-style path
pushing, and timeout.  Reported: true/false detections, false-positive
rate, detection messages, mean true-detection latency.

Expected shape (regenerated by the bench): every detector finds the real
deadlocks, but only the probe computation has an all-zero phantom column
on BOTH families -- at message cost proportional to actual blocking.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._ids import VertexId
from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.baselines.base import BaselineDetector
from repro.basic.initiation import ImmediateInitiation, ManualInitiation
from repro.core.registry import get_variant, overlay_variants
from repro.sim.network import ExponentialDelay
from repro.workloads.basic_random import RandomRequestWorkload
from repro.workloads.scenarios import schedule_ping_pong

if TYPE_CHECKING:
    from repro.basic.system import BasicSystem


@dataclass
class E8Result:
    workload: str
    detector: str
    true_detections: int
    false_detections: int
    messages: int
    mean_latency: float | None

    @property
    def false_positive_rate(self) -> float:
        total = self.true_detections + self.false_detections
        return self.false_detections / total if total else 0.0


HORIZON = 120.0

#: Sweep axes (shared with the declarative grid in ``repro.sweep.grids``).
SEEDS = tuple(range(10))
QUICK_SEEDS = tuple(range(3))
RANDOM_N_VERTICES = 12
RANDOM_DURATION = 60.0
PING_PONG_N_VERTICES = 8
PING_PONG_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))
PING_PONG_REPETITIONS = 10


def random_system(seed: int, immediate: bool) -> BasicSystem:
    system = get_variant("basic").build(
        n_vertices=RANDOM_N_VERTICES,
        seed=seed,
        delay_model=ExponentialDelay(mean=1.0),
        service_delay=0.5,
        initiation=ImmediateInitiation() if immediate else ManualInitiation(),
        strict=False,
    )
    RandomRequestWorkload(
        system, mean_think=1.5, max_targets=2, duration=RANDOM_DURATION
    ).start()
    return system


def ping_pong_system(seed: int, immediate: bool) -> BasicSystem:
    system = get_variant("basic").build(
        n_vertices=PING_PONG_N_VERTICES,
        seed=seed,
        service_delay=0.5,
        initiation=ImmediateInitiation() if immediate else ManualInitiation(),
        strict=False,
    )
    schedule_ping_pong(system, PING_PONG_PAIRS, repetitions=PING_PONG_REPETITIONS)
    return system


SystemFactory = Callable[[int, bool], "BasicSystem"]


def _run_cmh(workload: str, factory: SystemFactory, seeds: tuple[int, ...]) -> E8Result:
    true = false = messages = 0
    latencies: list[float] = []
    for seed in seeds:
        system = factory(seed, True)
        system.run_to_quiescence(max_events=500_000)
        true += len(system.declarations) - len(system.soundness_violations)
        false += len(system.soundness_violations)
        messages += system.probes_sent
        latencies.extend(system.detection_latencies)
    return E8Result(
        workload=workload,
        detector="probe computation (this paper)",
        true_detections=true,
        false_detections=false,
        messages=messages,
        mean_latency=mean(latencies) if latencies else None,
    )


def _run_overlay(
    workload: str,
    factory: SystemFactory,
    seeds: tuple[int, ...],
    label: str,
    make_detector: Callable[[BasicSystem], BaselineDetector],
) -> E8Result:
    true = false = messages = 0
    latencies: list[float] = []
    for seed in seeds:
        system = factory(seed, False)
        detector = make_detector(system)
        detector.start()
        system.run_to_quiescence(max_events=500_000)
        report = detector.report
        true += len(report.true_detections)
        false += len(report.false_detections)
        messages += report.messages
        for detection in report.true_detections:
            formed = system.deadlock_formed_at.get(VertexId(detection.vertex))
            if formed is not None:
                latencies.append(detection.time - formed)
    return E8Result(
        workload=workload,
        detector=label,
        true_detections=true,
        false_detections=false,
        messages=messages,
        mean_latency=mean(latencies) if latencies else None,
    )


#: E8 settings for each registered overlay variant: display label plus the
#: constructor keywords.  Keyed by registry name; consumed both by
#: :func:`detector_suite` and by the sweep runner, so the experiment table
#: and the declarative grid stay on identical configurations.
OVERLAY_SETTINGS: dict[str, tuple[str, dict[str, float]]] = {
    "centralized": (
        "centralized collection",
        {"period": 7.0, "horizon": HORIZON, "min_delay": 0.5, "max_delay": 3.0},
    ),
    "pathpush": (
        "path pushing (Obermarck-style)",
        {"period": 7.0, "horizon": HORIZON, "min_delay": 0.5, "max_delay": 3.0},
    ),
    "timeout": ("timeout (W=15)", {"window": 15.0}),
    "snapshot": (
        "snapshots (Chandy-Lamport '85)",
        {"period": 7.0, "horizon": HORIZON},
    ),
}


def detector_suite() -> list[tuple[str, Callable[[BasicSystem], BaselineDetector]]]:
    """The baseline detectors, resolved from the variant registry.

    Order follows :func:`repro.core.registry.overlay_variants` (the e8
    sweep-grid contract); the labels and settings come from
    :data:`OVERLAY_SETTINGS`.
    """
    suite: list[tuple[str, Callable[[BasicSystem], BaselineDetector]]] = []
    for variant in overlay_variants():
        label, settings = OVERLAY_SETTINGS[variant.name]
        suite.append(
            (
                label,
                lambda system, _build=variant.build, _settings=settings: _build(
                    system, **_settings
                ),
            )
        )
    return suite


def run_family(
    workload: str, factory: SystemFactory, seeds: tuple[int, ...]
) -> list[E8Result]:
    results = [_run_cmh(workload, factory, seeds)]
    for label, make_detector in detector_suite():
        results.append(_run_overlay(workload, factory, seeds, label, make_detector))
    return results


def run(quick: bool = False) -> tuple[Table, list[E8Result]]:
    seeds = QUICK_SEEDS if quick else SEEDS
    results = run_family("random deadlocks+churn", random_system, seeds)
    results += run_family("ping-pong (no deadlock)", ping_pong_system, seeds)
    table = Table(
        "E8: probe computation vs 1980-era baselines (same workloads)",
        [
            "workload",
            "detector",
            "true",
            "false",
            "FP rate",
            "messages",
            "mean latency",
        ],
    )
    for result in results:
        table.add_row(
            result.workload,
            result.detector,
            result.true_detections,
            result.false_detections,
            f"{result.false_positive_rate:.1%}",
            result.messages,
            "-" if result.mean_latency is None else result.mean_latency,
        )
    return table, results
