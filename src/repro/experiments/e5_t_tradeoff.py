"""E5 -- section 4.3: the delayed-initiation parameter T.

"The basic tradeoff is that if T is too small too many probe computations
are initiated and if T is too large the time taken to detect deadlock
(which is at least T) is too large."

The experiment runs the same random workload (same seeds) under a sweep of
T values and reports, per T:

* probe computations initiated (should fall monotonically with T),
* probe computations avoided by edges resolving before T,
* probe messages sent,
* mean detection latency over genuinely formed deadlocks (should grow,
  bounded below by T),
* deadlock components formed vs detected (completeness is preserved for
  every T -- dark edges persist, so their timers always fire).

This regenerates the tradeoff *curve* the paper argues about (and defers
optimising to its reference [6]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.basic.initiation import DelayedInitiation, ImmediateInitiation
from repro.core.registry import get_variant
from repro.sim.network import ExponentialDelay
from repro.workloads.basic_random import RandomRequestWorkload

#: Sweep axes (shared with the declarative grid in ``repro.sweep.grids``).
#: ``None`` means the batch-level immediate-initiation rule (reference row);
#: T=0 is the proper left end of the per-edge delayed-rule sweep.
T_SWEEP: tuple[float | None, ...] = (None, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
QUICK_T_SWEEP: tuple[float | None, ...] = (None, 0.0, 1.0, 4.0, 16.0)
SEEDS = tuple(range(8))
QUICK_SEEDS = tuple(range(3))
N_VERTICES = 10
DURATION = 60.0


@dataclass
class E5Result:
    timeout: float | None  # None = immediate initiation (T = 0 rule)
    computations: int
    avoided: int
    probes: int
    components_formed: int
    components_detected: int
    mean_latency: float | None

    @property
    def label(self) -> str:
        return "immediate (batch)" if self.timeout is None else f"T={self.timeout:g}"


def run_config(
    timeout: float | None,
    seeds: tuple[int, ...],
    n_vertices: int = N_VERTICES,
    duration: float = DURATION,
) -> E5Result:
    computations = avoided = probes = formed = detected = 0
    latencies: list[float] = []
    for seed in seeds:
        initiation = (
            ImmediateInitiation() if timeout is None else DelayedInitiation(timeout)
        )
        system = get_variant("basic").build(
            n_vertices=n_vertices,
            seed=seed,
            delay_model=ExponentialDelay(mean=1.0),
            service_delay=0.5,
            initiation=initiation,
        )
        workload = RandomRequestWorkload(
            system, mean_think=2.0, max_targets=2, duration=duration
        )
        workload.start()
        system.run_to_quiescence(max_events=500_000)
        system.assert_soundness()
        computations += system.counts["basic.computations.initiated"]
        avoided += system.counts["basic.computations.avoided"]
        probes += system.probes_sent
        report = system.completeness_report()
        total = len(system._dark_sccs())
        formed += total
        detected += total - len(report.undetected_components)
        latencies.extend(system.detection_latencies)
    return E5Result(
        timeout=timeout,
        computations=computations,
        avoided=avoided,
        probes=probes,
        components_formed=formed,
        components_detected=detected,
        mean_latency=mean(latencies) if latencies else None,
    )


def run(quick: bool = False) -> tuple[Table, list[E5Result]]:
    seeds = QUICK_SEEDS if quick else SEEDS
    sweep = QUICK_T_SWEEP if quick else T_SWEEP
    results = [run_config(timeout, seeds) for timeout in sweep]
    table = Table(
        "E5 (section 4.3): the T initiation-delay tradeoff",
        [
            "rule",
            "computations",
            "avoided",
            "probe msgs",
            "deadlocks formed",
            "detected",
            "mean latency",
        ],
    )
    for result in results:
        table.add_row(
            result.label,
            result.computations,
            result.avoided,
            result.probes,
            result.components_formed,
            result.components_detected,
            "-" if result.mean_latency is None else result.mean_latency,
        )
    return table, results
