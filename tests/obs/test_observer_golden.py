"""Byte-level pins of everything the run observer exports.

:func:`~repro.obs.metrics.telemetry_for_variant` is attached to every
``repro run``; what it writes is what a user scrapes or stores: the
Prometheus text, the snapshot JSONL, the span JSONL in emission order,
the SLO input (``detection_latencies``, in settlement order) and the
bound-violation count.  Equality with the batch fold (``test_stream.py``)
and the semantic checks in ``test_metrics.py`` do not see these bytes:
series created eagerly instead of on first use, or spans emitted in
another order, pass both.  This suite compares them with digests
recorded in ``golden_observer.json``.

Cases: the basic conformance pair (few computations, every series
family), ``bursty`` at n=41 (hundreds of superseded computations per
run) and ``ddb-hot`` on 8 sites (the DDB schema under lock churn), each
on seeds 0-2.  The run is driven in ticks, as ``repro run`` drives it,
with a snapshot after every tick, so mid-run state (open computations,
channels in flight) is pinned as well as the final one.

An intended change to the exported bytes re-records the file with
``PYTHONPATH=src python -m tests.obs.test_observer_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.core.assembly import build_runtime
from repro.core.conformance import conformance_workload
from repro.core.registry import get_variant
from repro.obs.metrics import telemetry_for_variant
from repro.obs.stream import span_to_json
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, make_params

GOLDEN = Path(__file__).with_name("golden_observer.json")

#: case name -> (variant, workload spec without its seed)
CASES: dict[str, tuple[str, WorkloadSpec]] = {
    "basic-deadlock": ("basic", conformance_workload("basic", "deadlock")),
    "basic-clean": ("basic", conformance_workload("basic", "clean")),
    "bursty-41": ("basic", WorkloadSpec(family="bursty", n=41)),
    "ddb-hot-8": (
        "ddb",
        WorkloadSpec(
            family="ddb-hot",
            n=8,
            params=make_params(resources=32, load=4, window=25, resolve=0),
        ),
    ),
}
SEEDS = (0, 1, 2)
#: virtual units between two mid-run snapshots.
TICK = 10.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(case: str, seed: int) -> dict[str, Any]:
    """Run one case under telemetry and condense what the observer exported."""
    variant_name, spec = CASES[case]
    variant = get_variant(variant_name)
    transport = build_runtime(seed=seed, trace=False).transport
    provisioned = provision_workload(variant, spec.with_seed(seed), transport=transport)
    span_lines: list[str] = []
    telemetry = telemetry_for_variant(
        transport,
        variant.capabilities,
        n_vertices=spec.n,
        span_sink=lambda span: span_lines.append(
            json.dumps(span_to_json(span), sort_keys=True)
        ),
    )
    snapshots: list[str] = []
    while True:
        transport.run(until=transport.now + TICK)
        snapshots.append(telemetry.snapshot_line(transport.now))
        if transport.quiescent:
            break
    assert provisioned.summarize().soundness_violations == 0
    telemetry.finish()
    prometheus = telemetry.render_prometheus()
    snapshots.append(telemetry.snapshot_line(transport.now))
    return {
        "prometheus_lines": prometheus.count("\n"),
        "prometheus": _digest(prometheus),
        "snapshots": len(snapshots),
        "snapshot_lines": _digest("\n".join(snapshots)),
        "spans": len(span_lines),
        "span_lines": _digest("\n".join(span_lines)),
        "detection_latencies": telemetry.detection_latencies,
        "bound_violations": telemetry.bound_violations,
    }


def _key(case: str, seed: int) -> str:
    return f"{case}/seed={seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_observer_output_matches_golden(case: str, seed: int) -> None:
    expected = json.loads(GOLDEN.read_text())[_key(case, seed)]
    assert observe(case, seed) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {_key(case, seed): observe(case, seed) for case in CASES for seed in SEEDS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
