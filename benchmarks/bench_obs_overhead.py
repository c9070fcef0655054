"""Observability overhead: tracing must be free when nobody is watching.

The streaming telemetry layer (``repro.obs.stream`` / ``repro.obs.metrics``)
rides :meth:`repro.sim.trace.Tracer.subscribe` for protocol categories and
:meth:`repro.sim.trace.Tracer.observe_messages` for sends and deliveries;
the cost model that makes monitoring a ``repro run`` honest is that a run
which is *not* monitored pays nothing for the instrumentation points
scattered through the network and the protocol handlers.  Two
configurations matter:

* **idle** -- ``trace=False``, no subscribers: the tracer's route table
  (:attr:`~repro.sim.trace.Tracer.routes`) and its message observer
  tuples are empty; every ``tracer.wants`` guard is one failed
  membership test and every send or delivery loops over an empty tuple.
* **cold-subscribed** -- a category-scoped subscriber is attached, but
  to categories the hot path never emits: every guard now misses a
  non-empty route table, and ``net.*`` stays unrouted, so the message
  tuples stay empty.  This is the worst case of "monitoring attached
  elsewhere"; it must stay within 2% of idle.

The comparison runs on the bare FIFO network (its per-message observer
loops are the hottest instrumentation sites in the engine); protocol
systems attach their own category subscribers and message observers, so
they are *always* in the cold-subscribed regime -- which is exactly why
the cold path must be cheap.  The monitor configuration itself (span
engine attached, ``trace=False``) is benchmarked end to end below and
its absolute throughput is ratcheted in ``BENCH_baseline.json``
(micro-benchmark ``obs.monitor_stream`` via ``repro bench``).
"""

from __future__ import annotations

import time

from repro.basic.system import BasicSystem
from repro.sim import categories
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.workloads.scenarios import schedule_cycle

#: messages per timed network run; big enough that one run is tens of
#: milliseconds (amortising timer resolution and scheduler jitter),
#: small enough that the interleaved repeats stay fast.
N_MESSAGES = 20_000
N_VERTICES = 48
REPEATS = 7
#: allowed overhead of the cold-subscribed path over the idle path.
OVERHEAD_BUDGET = 0.02


class _Sink(Process):
    def on_message(self, sender, message):
        pass


def _run_network(subscribe_cold: bool) -> float:
    """One timed 5k-message network run; returns wall seconds."""
    simulator = Simulator(seed=0, trace=False)
    if subscribe_cold:
        # A real category-scoped subscription (the monitor's mechanism),
        # but on a category this run never emits: net.* stays unrouted,
        # so every send and delivery still finds no observer.
        simulator.tracer.subscribe(
            lambda event: None, categories=(categories.PROFILE_QUEUE_SAMPLED,)
        )
    network = Network(simulator)
    source = _Sink(0)
    network.register(source)
    network.register(_Sink(1))
    for i in range(N_MESSAGES):
        source.send(1, i)
    started = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - started
    assert simulator.events_executed >= N_MESSAGES
    return elapsed


def test_tracer_idle_flag_tracks_subscriptions():
    """The precondition of the fast path: trace=False and no subscribers
    leaves the tracer idle; any subscription wakes it; unsubscribing
    restores it.  (Protocol systems attach observers of their own, so
    only the bare engine is ever fully idle -- see the module docstring.)"""
    simulator = Simulator(seed=0, trace=False)
    tracer = simulator.tracer
    assert tracer.idle

    def listener(event):
        raise AssertionError("cold category must never fire")

    tracer.subscribe(listener, categories=(categories.PROFILE_QUEUE_SAMPLED,))
    assert not tracer.idle
    tracer.unsubscribe(listener)
    assert tracer.idle

    # The enabled flag alone also wakes the tracer (events must buffer).
    tracer.enabled = True
    assert not tracer.idle
    tracer.enabled = False
    assert tracer.idle


def test_cold_subscription_overhead_under_budget():
    """Interleaved min-of-N: cold-subscribed within 2% of fully idle.

    Interleaving (idle, cold, idle, cold, ...) exposes both variants to
    the same thermal/scheduler drift; taking the min of each damps noise
    the standard way.  The assertion carries two retries to keep
    scheduler hiccups on a shared runner from failing the suite -- three
    consecutive breaches of the budget is a real regression.
    """

    def measure() -> tuple[float, float]:
        # Warm both code paths (allocator, bytecode caches) before timing;
        # the first cold-subscribed run of a process is reliably slower.
        _run_network(subscribe_cold=False)
        _run_network(subscribe_cold=True)
        idle = float("inf")
        cold = float("inf")
        for _ in range(REPEATS):
            idle = min(idle, _run_network(subscribe_cold=False))
            cold = min(cold, _run_network(subscribe_cold=True))
        return idle, cold

    overhead = 0.0
    for attempt in range(3):
        idle, cold = measure()
        overhead = cold / idle - 1.0
        print(
            f"\n[obs overhead attempt {attempt + 1}: idle {idle * 1e3:.2f} ms, "
            f"cold-subscribed {cold * 1e3:.2f} ms, overhead {overhead:+.2%} "
            f"(budget {OVERHEAD_BUDGET:.0%})]"
        )
        if overhead <= OVERHEAD_BUDGET:
            return
    raise AssertionError(
        f"cold-subscribed tracing overhead {overhead:+.2%} exceeded the "
        f"{OVERHEAD_BUDGET:.0%} budget in three consecutive measurements"
    )


def test_monitored_run_produces_spans_without_buffering(benchmark):
    """The monitor configuration end to end: telemetry subscribed through
    the shared :func:`~repro.obs.metrics.telemetry_for_variant` helper
    (the same attachment path ``repro run`` uses on every transport --
    no direct tracer plumbing here), trace=False --
    throughput benchmark plus the bounded-memory claim."""
    from repro.core.registry import get_variant
    from repro.obs.metrics import telemetry_for_variant

    capabilities = get_variant("basic").capabilities

    def run() -> tuple[int, int]:
        system = BasicSystem(n_vertices=N_VERTICES, seed=0, trace=False)
        telemetry = telemetry_for_variant(
            system.transport, capabilities, n_vertices=N_VERTICES
        )
        schedule_cycle(system, list(range(N_VERTICES)), gap=0.1)
        system.run_to_quiescence()
        telemetry.finish()
        emitted = sum(engine.emitted for engine in telemetry.engines.values())
        return emitted, len(system.transport.tracer)

    emitted, buffered = benchmark(run)
    assert emitted >= 1
    assert buffered == 0, "a monitored trace=False run must buffer no events"
