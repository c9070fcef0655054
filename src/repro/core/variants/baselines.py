"""Registration of the four baseline overlay variants (experiment E8).

Baselines are *overlays*: each binds to a host
:class:`~repro.basic.system.BasicSystem` (``build(host, **settings)``)
rather than owning a system of its own, so their registry records carry
``kind="overlay"``.  Registration order here is the sweep contract --
e8 grid cells index ``overlay_variants()`` by ``detector - 1``:
centralized (1), pathpush (2), timeout (3), snapshot (4).

Conformance runs each overlay on a small manually-initiated host (no
competing probe traffic), scores soundness from the detector's
oracle-verdicted report, and checks completeness the same way every
variant does: each cyclic dark SCC of the host oracle must contain a
detected vertex.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.baselines import (
    CentralizedDetector,
    PathPushingDetector,
    SnapshotDetector,
    TimeoutDetector,
)
from repro.baselines.base import BaselineDetector
from repro.basic.initiation import ManualInitiation
from repro.basic.system import BasicSystem
from repro.core.conformance import ConformanceOutcome, unknown_scenario
from repro.core.engine import completeness_report
from repro.core.registry import DetectorVariant, VariantCapabilities, register

#: per-overlay settings used by the conformance scenarios; small periods
#: and horizons keep the runs inside the tier-1 budget.
_CONFORMANCE_SETTINGS: dict[str, dict[str, float]] = {
    "centralized": {
        "period": 5.0,
        "horizon": 30.0,
        "min_delay": 0.5,
        "max_delay": 1.5,
    },
    "pathpush": {"period": 5.0, "horizon": 30.0, "min_delay": 0.5, "max_delay": 1.5},
    "timeout": {"window": 10.0},
    "snapshot": {"period": 5.0, "horizon": 30.0},
}

#: overrides applied when conformance runs on a non-simulator backend.
#: Wall-clock scheduling noise (import warm-up, GC, loop wake-up jitter)
#: shows up as extra virtual time on a live runtime, so the timeout
#: detector's window needs the head-room a production deployment would
#: give it; mis-calibrated windows turning into phantoms is exactly the
#: weakness E8 documents for this baseline, not a conformance artifact.
_LIVE_SETTINGS: dict[str, dict[str, float]] = {
    "timeout": {"window": 30.0},
}


def _conformance_for(
    name: str, build: Callable[..., BaselineDetector]
) -> Callable[..., ConformanceOutcome]:
    def run(
        scenario: str, seed: int, transport: object | None = None
    ) -> ConformanceOutcome:
        host = BasicSystem(
            n_vertices=4,
            seed=seed,
            initiation=ManualInitiation(),
            strict=False,
            transport=transport,
        )
        if scenario == "deadlock":
            # The standard 4-cycle: every vertex requests its successor.
            for i in range(4):
                host.schedule_request(0.5 * i, i, [(i + 1) % 4])
        elif scenario == "clean":
            # A draining 4-chain: all waits resolve via replies.
            for i in range(3):
                host.schedule_request(0.5 * i, i, [i + 1])
        else:
            unknown_scenario(name, scenario)
        settings = dict(_CONFORMANCE_SETTINGS[name])
        if transport is not None and getattr(transport, "name", "") != "sim":
            settings.update(_LIVE_SETTINGS.get(name, {}))
        detector = build(host, **settings)
        detector.start()
        host.run_to_quiescence()
        report = completeness_report(
            host.oracle.dark_edges(), declared=detector.report.detected_vertices()
        )
        return ConformanceOutcome(
            variant=name,
            scenario=scenario,
            declarations=len(detector.report.detections),
            soundness_violations=len(detector.report.false_detections),
            complete=report.complete,
            undetected_components=len(report.undetected_components),
            first_declaration_at=(
                detector.report.detections[0].time
                if detector.report.detections
                else None
            ),
        )

    return run


def _overlay(
    name: str,
    title: str,
    oracle_criterion: str,
    build: Callable[..., BaselineDetector],
) -> DetectorVariant:
    return register(
        DetectorVariant(
            name=name,
            title=title,
            capabilities=VariantCapabilities(
                model="basic",
                kind="overlay",
                oracle_criterion=oracle_criterion,
                scenarios=("baseline-random", "baseline-ping-pong"),
                taxonomy=None,
            ),
            build=build,
            conformance=_conformance_for(name, build),
        )
    )


CENTRALIZED_VARIANT = _overlay(
    "centralized",
    "centralized collection (Ho-Ramamoorthy style)",
    "detected vertex is on a dark cycle when declared",
    CentralizedDetector,
)

PATHPUSH_VARIANT = _overlay(
    "pathpush",
    "path pushing (Obermarck-style)",
    "detected vertex is on a dark cycle when declared",
    PathPushingDetector,
)

TIMEOUT_VARIANT = _overlay(
    "timeout",
    "timeout after window W",
    "detected vertex is on a dark cycle when declared",
    TimeoutDetector,
)

SNAPSHOT_VARIANT = _overlay(
    "snapshot",
    "consistent snapshots (Chandy-Lamport '85)",
    "detected vertex is on a dark cycle when declared",
    SnapshotDetector,
)
