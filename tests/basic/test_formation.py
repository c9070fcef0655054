"""Basic-model formation times come from a direct call, not from the trace.

A vertex calls its system's ``stamp_formation`` right after each request
adds its oracle edge, as the DDB controllers do.  With tracing off and no
monitor nothing routes a trace category, and the stamps equal both those
of a traced run and those stamped from its ``basic.request.sent`` records.
"""

from __future__ import annotations

import pytest

from repro._ids import VertexId
from repro.basic.system import BasicSystem
from repro.core.assembly import build_runtime
from repro.core.registry import get_variant
from repro.sim import categories
from repro.sim.network import ExponentialDelay
from repro.sim.trace import TraceEvent
from repro.workloads.provision import ProvisionedWorkload, provision_workload
from repro.workloads.spec import get_family

SEEDS = (5, 9100)


def basic_run(family: str, seed: int, trace: bool) -> ProvisionedWorkload:
    spec = get_family(family).example.with_seed(seed)
    transport = build_runtime(
        seed=seed, delay_model=ExponentialDelay(mean=1.0), trace=trace
    ).transport
    return provision_workload(get_variant("basic"), spec, transport=transport)


def stamps_from_requests(system: BasicSystem) -> dict[VertexId, float]:
    """Formation times stamped from the run's ``basic.request.sent``
    records: the dark cycle through each request's source, found after
    the request's edge was added."""
    formed: dict[VertexId, float] = {}

    def on_request_sent(event: TraceEvent) -> None:
        source = event.details["source"]
        if system.oracle.is_on_dark_cycle(source):
            for member in system.oracle.find_dark_cycle(source) or [source]:
                formed.setdefault(member, event.time)

    system.transport.tracer.subscribe(
        on_request_sent, categories=(categories.BASIC_REQUEST_SENT,)
    )
    return formed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", ["bursty", "figure-eight"])
def test_untraced_run_routes_nothing_and_stamps_as_a_traced_one(
    family: str, seed: int
) -> None:
    untraced = basic_run(family, seed, trace=False)
    assert not untraced.system.transport.tracer.routes
    untraced.run_to_quiescence()
    traced = basic_run(family, seed, trace=True)
    from_requests = stamps_from_requests(traced.system)
    traced.run_to_quiescence()
    assert untraced.system.deadlock_formed_at
    assert untraced.system.deadlock_formed_at == traced.system.deadlock_formed_at
    assert traced.system.deadlock_formed_at == from_requests
    assert untraced.system.declarations == traced.system.declarations
