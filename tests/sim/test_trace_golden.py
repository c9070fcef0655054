"""Byte-level pins of the full trace of ``trace=True`` runs.

Every protocol action is recorded through :meth:`~repro.sim.trace.Tracer.record`
and, with recording enabled, logged in order; ``repro run --trace-out``
exports that log with :func:`~repro.obs.export.events_to_jsonl`.  A
change to how the tracer routes, builds or stores events must leave the
log byte-identical: the same events, the same payloads, in the same
order.  This suite compares the JSONL digest of each case with
``golden_trace.json``.

Cases: the basic cycle and figure-eight scenarios as the ``cycle`` and
``figure-eight`` workload families schedule them, the DDB and OR
deadlock conformance workloads, and a basic run with the timeout
baseline attached (a subscriber that is not one of the system's own),
each on seeds 0-2.  Message delays are exponential, so each seed is its
own interleaving.

An intended change to the trace re-records the file with
``PYTHONPATH=src python -m tests.sim.test_trace_golden``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from pathlib import Path
from typing import Any

import pytest

from repro.baselines import TimeoutDetector
from repro.basic.system import BasicSystem
from repro.core.assembly import build_runtime
from repro.core.conformance import conformance_workload
from repro.core.registry import get_variant
from repro.obs.export import events_to_jsonl
from repro.sim.network import ExponentialDelay
from repro.sim.trace import Tracer
from repro.workloads import scenarios
from repro.workloads.provision import provision_workload

GOLDEN = Path(__file__).with_name("golden_trace.json")
SEEDS = (0, 1, 2)
#: heavy-tailed delays: every seed reorders the protocol's messages.
DELAYS = ExponentialDelay(mean=1.0)


def _cycle(seed: int) -> tuple[Tracer, dict[str, Any]]:
    system = get_variant("basic").build(n_vertices=8, seed=seed, delay_model=DELAYS)
    scenarios.schedule_cycle(system, list(range(8)))
    system.run_to_quiescence()
    return system.transport.tracer, {"declarations": len(system.declarations)}


def _figure_eight(seed: int) -> tuple[Tracer, dict[str, Any]]:
    system = get_variant("basic").build(n_vertices=5, seed=seed, delay_model=DELAYS)
    scenarios.schedule_figure_eight(system, shared=0, left=[1, 2], right=[3, 4])
    system.run_to_quiescence()
    return system.transport.tracer, {"declarations": len(system.declarations)}


def _conformance(model: str) -> Callable[[int], tuple[Tracer, dict[str, Any]]]:
    def run(seed: int) -> tuple[Tracer, dict[str, Any]]:
        transport = build_runtime(seed=seed, trace=True, delay_model=DELAYS).transport
        spec = conformance_workload(model, "deadlock").with_seed(seed)
        provisioned = provision_workload(get_variant(model), spec, transport=transport)
        provisioned.run_to_quiescence()
        outcome = provisioned.summarize()
        return transport.tracer, {
            "declarations": outcome.declarations,
            "soundness_violations": outcome.soundness_violations,
        }

    return run


def _timeout_baseline(seed: int) -> tuple[Tracer, dict[str, Any]]:
    # A 4-cycle (every wait outlives the window) beside a 4 -> 5 wait that
    # a reply ends in time, so the baseline sees both of its categories.
    system = BasicSystem(n_vertices=6, seed=seed, delay_model=DELAYS)
    scenarios.schedule_cycle(system, [0, 1, 2, 3])
    system.schedule_request(0.25, 4, [5])
    detector = TimeoutDetector(system, window=10.0)
    detector.start()
    system.run_to_quiescence()
    return system.transport.tracer, {
        "declarations": len(system.declarations),
        "timeout_detections": [
            [detection.time, int(detection.vertex)] for detection in detector.report.detections
        ],
    }


CASES: dict[str, Callable[[int], tuple[Tracer, dict[str, Any]]]] = {
    "basic-cycle-8": _cycle,
    "basic-figure-eight-5": _figure_eight,
    "ddb-deadlock": _conformance("ddb"),
    "ormodel-deadlock": _conformance("ormodel"),
    "basic-timeout-baseline": _timeout_baseline,
}


def record(case: str, seed: int) -> dict[str, Any]:
    """Run one case with tracing on and condense its exported trace."""
    tracer, summary = CASES[case](seed)
    jsonl = events_to_jsonl(tracer)
    return {
        "events": len(tracer),
        "jsonl": hashlib.sha256(jsonl.encode()).hexdigest(),
        **summary,
    }


def _key(case: str, seed: int) -> str:
    return f"{case}/seed={seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_trace_matches_golden(case: str, seed: int) -> None:
    expected = json.loads(GOLDEN.read_text())[_key(case, seed)]
    assert record(case, seed) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {_key(case, seed): record(case, seed) for case in CASES for seed in SEEDS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
