"""E10 -- initiation scheduling: static-T curves vs the adaptive controller.

Section 4.3 leaves the delayed-initiation window T as a manual knob and
only bounds its two failure modes: a small T probes short-lived waits
that would have resolved on their own, a large T sits on a real deadlock
for the whole window.  Ling, Chen & Chiang (PAPERS.md) close the loop
analytically -- the cost-optimal detection interval is
``T* = sqrt(2c / lambda)`` for detection cost ``c`` and deadlock rate
``lambda`` -- and the ``adaptive`` scheduling policy implements that
controller online, per system, from observed wait lifetimes and probe
computation outcomes.

This experiment puts the controller on the ``bursty`` workload (periodic
contention storms that always drain, a quiet stretch, then one planted
cycle) and sweeps a static-T axis next to it, measuring per policy:

1. **Probe traffic**: total probes and computations over the run.  A
   static T below the storm lifetimes re-pays the storm on every burst;
   the adaptive policy pays once, while its lifetime estimate learns the
   storm, then arms above it.
2. **Detection latency**: first declaration minus the instant the
   planted cycle closed.  A static T above the storms is safe but slow;
   the adaptive policy decays back down through the quiet stretch.
3. **The Pareto check** (machine-asserted): the adaptive policy must
   strictly beat at least one static setting on probes at
   equal-or-better detection latency.
4. **Section 4 bounds**: every probe computation span is checked with
   :meth:`~repro.obs.spans.ProbeComputationSpan.check_bounds`; the
   experiment asserts zero violations and zero unsound declarations.

Every run must detect its planted deadlock (completeness is asserted,
not sampled), so the latency column is never empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import mean
from repro.analysis.tables import Table
from repro.core.registry import get_variant
from repro.core.scheduling import parse_policy_spec
from repro.errors import BoundViolation
from repro.obs.spans import build_spans
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec

#: Sweep axes.  ``repro.sweep.grids`` re-expresses this experiment as a
#: declarative grid over the same axes, so the numbers stay in one place.
#: The workload itself (n, storm shape) is never shrunk for quick mode:
#: the Pareto structure lives in the storm timing, so quick mode trims
#: seeds and the static axis instead.
N_VERTICES = 17
#: Static delayed-T settings bracketing the bursty workload's wait
#: lifetimes (quiet waits ~3, storm chains up to ~11 virtual units).
STATIC_TS = (2.0, 4.0, 8.0, 10.0, 16.0)
QUICK_STATIC_TS = (4.0, 10.0)
SEEDS = tuple(range(5))
QUICK_SEEDS = (0, 1)
ADAPTIVE_POLICY = "adaptive"


def policy_axis(quick: bool = False) -> tuple[str, ...]:
    """The experiment's policy ids: the static-T curve, then adaptive."""
    statics = QUICK_STATIC_TS if quick else STATIC_TS
    return tuple(f"delayed/T={t:g}" for t in statics) + (ADAPTIVE_POLICY,)


@dataclass
class E10Result:
    """One initiation policy aggregated over the bursty workload's seeds."""

    policy: str
    runs: int
    mean_probes: float
    mean_computations: float
    #: computations the delay window avoided (wait resolved before the
    #: timer fired), averaged over seeds.
    mean_avoided: float
    #: mean virtual time from cycle close to first declaration.
    mean_latency: float
    #: section 4 bound breaches across every span (the claim: always 0).
    bound_violations: int

    @property
    def is_adaptive(self) -> bool:
        return self.policy == ADAPTIVE_POLICY

    def dominates(self, other: E10Result) -> bool:
        """Strictly fewer probes at equal-or-better detection latency."""
        return (
            self.mean_probes < other.mean_probes
            and self.mean_latency <= other.mean_latency
        )


def run_policy(
    policy: str,
    n: int = N_VERTICES,
    seeds: tuple[int, ...] = SEEDS,
) -> E10Result:
    """Run the bursty workload under one policy over its seeds."""
    variant = get_variant("basic")
    spec_policy = parse_policy_spec(policy)
    probes: list[float] = []
    computations: list[float] = []
    avoided: list[float] = []
    latencies: list[float] = []
    violations = 0
    for seed in seeds:
        spec = WorkloadSpec(family="bursty", n=n, seed=seed)
        run = provision_workload(variant, spec, policy=spec_policy)
        run.run_to_quiescence(max_events=2_000_000)
        outcome = run.summarize()
        assert outcome.soundness_violations == 0, (
            f"unsound declaration under {policy} in {spec.workload_id}"
        )
        assert outcome.complete, (
            f"missed the planted deadlock under {policy} in {spec.workload_id}"
        )
        assert outcome.declarations and outcome.first_declaration_at is not None
        extra = run.extra()
        latencies.append(outcome.first_declaration_at - extra["cycle_closed_at"])
        avoided.append(extra["avoided"])
        system = run.system
        probes.append(system.probes_sent)
        computations.append(system.counts["basic.computations.initiated"])
        for span in build_spans(system.simulator.tracer):
            try:
                span.check_bounds(n_vertices=n)
            except BoundViolation:
                violations += 1
    return E10Result(
        policy=policy,
        runs=len(seeds),
        mean_probes=mean(probes),
        mean_computations=mean(computations),
        mean_avoided=mean(avoided),
        mean_latency=mean(latencies),
        bound_violations=violations,
    )


def run(quick: bool = False) -> tuple[Table, list[E10Result]]:
    seeds = QUICK_SEEDS if quick else SEEDS
    results = [run_policy(policy, seeds=seeds) for policy in policy_axis(quick)]

    assert all(result.bound_violations == 0 for result in results), (
        "section 4 bound violated under a scheduling policy"
    )
    adaptive = next(result for result in results if result.is_adaptive)
    dominated = [
        result
        for result in results
        if not result.is_adaptive and adaptive.dominates(result)
    ]
    assert dominated, (
        "adaptive policy failed to Pareto-dominate any static T: "
        + "; ".join(
            f"{r.policy} probes={r.mean_probes:.1f} latency={r.mean_latency:.2f}"
            for r in results
        )
    )

    table = Table(
        "E10: static-T initiation vs the adaptive controller (bursty load)",
        [
            "policy",
            "mean probes",
            "mean computations",
            "mean avoided",
            "mean latency",
            "bound violations",
            "pareto",
        ],
    )
    dominated_ids = {result.policy for result in dominated}
    for result in results:
        if result.is_adaptive:
            marker = "dominates " + ", ".join(sorted(dominated_ids))
        else:
            marker = "dominated" if result.policy in dominated_ids else "-"
        table.add_row(
            result.policy,
            f"{result.mean_probes:.1f}",
            f"{result.mean_computations:.1f}",
            f"{result.mean_avoided:.1f}",
            f"{result.mean_latency:.2f}",
            result.bound_violations,
            marker,
        )
    return table, results
