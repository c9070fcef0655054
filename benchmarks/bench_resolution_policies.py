"""Ablation bench: victim-selection policies (resolution extension).

Not a paper claim (the paper defers resolution) but a DESIGN.md ablation
with a real tradeoff, measured from two angles:

* **duplicate-abort episodes** -- several *independent* cross-site
  deadlocks detected concurrently from both sides.  Per-declarer victims
  (AbortAboutTransaction) abort both members of every pair; the
  deterministic shared victim (AbortLowestTransactionInCycle) aborts
  exactly one -- a 2x reduction, exact and deterministic.
* **sustained contention** -- the same transactions re-deadlock across
  restarts.  Here the *static* priority backfires: the lowest-numbered
  transaction keeps being the victim, re-deadlocks, and is victimised
  again, so total aborts can exceed the naive policy's.  (This is why
  production schemes -- wound-wait etc. -- use priorities that persist
  across restarts so every transaction eventually wins.)

The bench asserts the exact first effect and reports the second.
"""

from repro.ddb.resolution import AbortAboutTransaction, AbortLowestTransactionInCycle
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, TransactionExecution, acquire
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

from benchmarks.conftest import full_mode


def run_parallel_pairs(policy_factory, n_pairs: int) -> dict:
    """``n_pairs`` disjoint cross-site deadlocks, each detected from both
    sides concurrently; victims restart and everything commits."""
    from repro._ids import ResourceId, SiteId, TransactionId
    from repro.ddb.locks import LockMode

    X = LockMode.EXCLUSIVE
    resources = {
        ResourceId(f"r{i}"): SiteId(i % (2 * n_pairs)) for i in range(2 * n_pairs)
    }
    system = DdbSystem(
        n_sites=2 * n_pairs, resources=resources, resolution=policy_factory(),
        trace=False,
    )

    def restart(execution: TransactionExecution, aborted: bool) -> None:
        if aborted:
            system.restart(execution.spec.tid, delay=3.0 + 2.0 * int(execution.spec.tid))

    system.finished_callback = restart
    from repro.ddb.transaction import TransactionSpec

    tid = 1
    for pair in range(n_pairs):
        site_a, site_b = 2 * pair, 2 * pair + 1
        ra, rb = f"r{site_a}", f"r{site_b}"
        for home, first, second in ((site_a, ra, rb), (site_b, rb, ra)):
            system.begin(
                TransactionSpec(
                    tid=TransactionId(tid),
                    home=SiteId(home),
                    operations=(acquire((first, X)), Think(1.0), acquire((second, X))),
                ),
                at=0.05 * tid,
            )
            tid += 1
    system.run_to_quiescence(max_events=1_000_000)
    system.assert_no_deadlock_remains()
    return {
        "aborts": sum(r.aborts for r in system.transactions.values()),
        "commits": sum(r.commits for r in system.transactions.values()),
    }


def run_contended(policy_factory, seeds) -> dict:
    total_aborts = total_commits = 0
    for seed in seeds:
        system = DdbSystem(
            n_sites=3, resources=6, seed=seed, resolution=policy_factory(),
            trace=False,
        )
        workload = TransactionWorkload(
            system,
            WorkloadParams(
                n_transactions=12,
                remote_probability=1.0,
                read_ratio=0.0,
                hotspot_probability=0.6,
                hotspot_size=2,
                mean_think=1.0,
                arrival_window=6.0,
                restart_horizon=3000.0,
            ),
        )
        workload.start()
        system.run_to_quiescence(max_events=2_000_000)
        system.assert_no_deadlock_remains()
        total_aborts += workload.stats.aborts
        total_commits += workload.stats.commits
    return {"aborts": total_aborts, "commits": total_commits}


def test_resolution_policy_ablation(benchmark, record_table):
    seeds = tuple(range(8)) if full_mode() else tuple(range(3))
    n_pairs = 4

    def run():
        return {
            ("parallel pairs", "abort declared"): run_parallel_pairs(
                AbortAboutTransaction, n_pairs
            ),
            ("parallel pairs", "abort lowest in cycle"): run_parallel_pairs(
                AbortLowestTransactionInCycle, n_pairs
            ),
            ("sustained contention", "abort declared"): run_contended(
                AbortAboutTransaction, seeds
            ),
            ("sustained contention", "abort lowest in cycle"): run_contended(
                AbortLowestTransactionInCycle, seeds
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.analysis.tables import Table

    table = Table(
        "Ablation: victim-selection policies (resolution extension)",
        ["workload", "policy", "commits", "aborts"],
    )
    for (workload, policy), outcome in results.items():
        table.add_row(workload, policy, outcome["commits"], outcome["aborts"])
    record_table("resolution_ablation", table.render())

    pairs_about = results[("parallel pairs", "abort declared")]
    pairs_lowest = results[("parallel pairs", "abort lowest in cycle")]
    # Exact duplicate-abort effect: both controllers of each pair detect;
    # per-declarer victims abort both members, the shared victim only one.
    assert pairs_about["commits"] == pairs_lowest["commits"] == 2 * n_pairs
    assert pairs_about["aborts"] == 2 * n_pairs
    assert pairs_lowest["aborts"] == n_pairs
    # Sustained contention: both policies keep the system live (everything
    # commits); the abort totals are reported, not ranked -- static
    # priority trades duplicate aborts for repeat victimisation.
    for key in results:
        if key[0] == "sustained contention":
            assert results[key]["commits"] == 12 * len(seeds)
