"""Each fact about a run has one count.

Sends and deliveries are counted by whoever observes the tracer's
message channel (telemetry, a system's probe accounting), never again by
the transports or the protocol handlers.  These tests run real workloads
and check three things: no transport or handler counter for messages or
probes exists, the probe accounting equals an independent count of the
probe sends, and the run report's delivery count equals an independent
count of the deliveries.
"""

from __future__ import annotations

from typing import Any

from repro._ids import ProbeTag
from repro.basic.messages import Probe
from repro.basic.system import BasicSystem
from repro.core.assembly import build_runtime
from repro.core.conformance import conformance_workload
from repro.core.registry import get_variant
from repro.ddb.messages import DdbProbe
from repro.runner import run
from repro.workloads.provision import provision_workload
from repro.workloads.scenarios import schedule_cycle


def _duplicate_counters(system) -> list[str]:
    """Counters that would count a message or a probe a second time."""
    return [
        name
        for name in system.metrics.snapshot()
        if name.startswith(("net.messages", "basic.probes.", "ddb.probes."))
    ]


def _probe_sends(tracer, probe_type: type) -> list[Any]:
    """Every ``probe_type`` message sent from now on, in send order."""
    sends: list[Any] = []

    def on_sent(time, sender, destination, message) -> None:
        if isinstance(message, probe_type):
            sends.append(message)

    tracer.observe_messages(on_sent=on_sent)
    return sends


def test_basic_cycle_counts_each_probe_once() -> None:
    system = BasicSystem(n_vertices=8, trace=False)
    sends = _probe_sends(system.transport.tracer, Probe)
    schedule_cycle(system, list(range(8)))
    system.run_to_quiescence()
    assert system.declarations
    assert _duplicate_counters(system) == []
    assert system.probes_sent == len(sends) > 0
    assert system.probes_sent == sum(system.probes_per_computation.values())


def test_ddb_deadlock_counts_each_probe_once() -> None:
    transport = build_runtime(seed=0, trace=False).transport
    sends = _probe_sends(transport.tracer, DdbProbe)
    spec = conformance_workload("ddb", "deadlock").with_seed(0)
    provisioned = provision_workload(get_variant("ddb"), spec, transport=transport)
    provisioned.run_to_quiescence()
    system = provisioned.system
    assert system.declarations
    assert _duplicate_counters(system) == []
    assert system.probes_sent == len(sends) > 0


def test_a2_forwards_the_probe_it_received() -> None:
    # A0 sends one object on every outgoing edge and A2 forwards the one
    # it received, so a computation's probes are all one object.
    system = BasicSystem(n_vertices=16, trace=False)
    sends = _probe_sends(system.transport.tracer, Probe)
    schedule_cycle(system, list(range(16)))
    system.run_to_quiescence()
    by_tag: dict[ProbeTag, list[Probe]] = {}
    for probe in sends:
        by_tag.setdefault(probe.tag, []).append(probe)
    assert max(len(probes) for probes in by_tag.values()) == 16
    for probes in by_tag.values():
        assert all(probe is probes[0] for probe in probes)


def test_run_report_counts_deliveries_from_telemetry() -> None:
    transport = build_runtime(seed=0, trace=False).transport
    delivered: list[object] = []
    transport.tracer.observe_messages(on_delivered=lambda *call: delivered.append(call))
    report = run("basic", "deadlock", transport=transport)
    assert report.detected
    assert report.messages_delivered == len(delivered) > 0
