"""Each fact about a run has one count.

Sends and deliveries are counted by whoever observes the tracer's
message channel (telemetry, a system's probe accounting), never again by
the transports or the protocol handlers.  Declarations, transaction
commits and aborts and baseline detections are kept once, in the
system's records (``declarations``, ``transactions``) and in the
``BaselineReport``, never again as a count.  These tests run real
workloads and check four things: no transport count repeats one of
those facts, the probe accounting equals an independent count of the
probe sends, the run report's delivery count equals an independent count
of the deliveries, and the kept records still hold the facts.
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
from repro.ddb.resolution import AbortAboutTransaction
from repro.experiments.e8_baselines import detector_suite, ping_pong_system
from repro.ormodel.system import OrSystem
from repro.runner import run
from repro.sim import categories
from repro.sim.trace import TraceEvent
from repro.workloads.provision import provision_workload
from repro.workloads.scenarios import schedule_cycle

from tests.ddb.helpers import cross_deadlock, total_aborts, two_site_system


#: count names that would repeat a message, a probe, a transaction
#: outcome or a baseline report; ``*.deadlocks.declared`` would repeat
#: ``len(system.declarations)``.
DUPLICATE_PREFIXES = ("net.messages", "basic.probes.", "ddb.probes.", "ddb.txn.", "baseline.")


def _duplicate_counters(system) -> list[str]:
    """Counts that repeat a fact the run already keeps."""
    return [
        name
        for name in system.counts
        if name.startswith(DUPLICATE_PREFIXES) or name.endswith(".deadlocks.declared")
    ]


def _traced(tracer, category: str) -> list[TraceEvent]:
    """Every ``category`` trace event recorded from now on."""
    events: list[TraceEvent] = []
    tracer.subscribe(events.append, categories=(category,))
    return events


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


def test_ddb_victim_aborts_are_kept_once_in_the_transaction_records() -> None:
    system = two_site_system(resolution=AbortAboutTransaction(), trace=False)
    aborted = _traced(system.transport.tracer, categories.DDB_TXN_ABORTED)
    declared = _traced(system.transport.tracer, categories.DDB_DEADLOCK_DECLARED)

    def restart(execution, was_aborted: bool) -> None:
        if was_aborted:
            system.restart(execution.spec.tid, delay=3.0 + 4.0 * int(execution.spec.tid))

    system.finished_callback = restart
    cross_deadlock(system)
    system.run_to_quiescence(max_events=100_000)
    system.assert_no_deadlock_remains()
    assert _duplicate_counters(system) == []
    assert total_aborts(system) == len(aborted) > 0
    assert all(record.commits == 1 for record in system.transactions.values())
    assert len(system.declarations) == len(declared) > 0


def test_or_knot_declarations_are_kept_once() -> None:
    # p0 waits any{p1, p2}; p1 and p2 each wait any{p0}: a knot.
    system = OrSystem(n_vertices=3, trace=False)
    declared = _traced(system.transport.tracer, categories.OR_DEADLOCK_DECLARED)
    system.schedule_request(0.0, 1, [0])
    system.schedule_request(0.3, 2, [0])
    system.schedule_request(0.6, 0, [1, 2])
    system.run_to_quiescence()
    system.assert_completeness()
    assert _duplicate_counters(system) == []
    assert len(system.declarations) == len(declared) > 0
    # the OR query/reply traffic has no other count, so it keeps its own
    assert system.counts["or.queries.sent"] > 0


def test_baseline_overlay_keeps_its_facts_in_its_report() -> None:
    _, make_detector = detector_suite()[0]
    system = ping_pong_system(seed=0, immediate=False)
    detector = make_detector(system)
    detector.start()
    system.run_to_quiescence(max_events=500_000)
    report = detector.report
    assert _duplicate_counters(system) == []
    assert report.messages > 0 and report.detections
