"""Detect or prevent?  The probe computation vs wait-die / wound-wait.

The paper's approach lets deadlocks happen and detects them precisely.
The classic alternative (Rosenkrantz et al. 1978) prevents cycles with
timestamp ordering, aborting transactions on mere *suspicion*.  This
example runs an identical contended bank-style workload under all three
schemes and prints the trade:

* detection aborts only genuine deadlock victims, at the cost of probe
  messages proportional to blocking;
* wait-die aborts every young transaction that bumps into an older one --
  many times more aborts, zero detection messages;
* wound-wait preempts younger lock holders -- fewer aborts than wait-die,
  still more than detection.

Run:  python examples/prevention_vs_detection.py
"""

from __future__ import annotations

from repro.ddb import (
    AbortLowestTransactionInCycle,
    DdbManualInitiation,
    DdbSystem,
    WaitDie,
    WoundWait,
)
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

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
SEEDS = range(4)


def run(label: str, **system_kwargs) -> tuple[str, int, int, int]:
    commits = aborts = probes = 0
    for seed in SEEDS:
        system = DdbSystem(
            n_sites=3, resources=6, seed=seed, trace=False, **system_kwargs
        )
        workload = TransactionWorkload(system, WorkloadParams(**PARAMS))
        workload.start()
        system.run_to_quiescence(max_events=3_000_000)
        system.assert_no_deadlock_remains()
        commits += workload.stats.commits
        aborts += workload.stats.aborts
        probes += system.probes_sent
    return label, commits, aborts, probes


def main() -> None:
    rows = [
        run(
            "detection (this paper)",
            resolution=AbortLowestTransactionInCycle(),
        ),
        run(
            "prevention: wait-die",
            prevention=WaitDie(),
            initiation=DdbManualInitiation(),
        ),
        run(
            "prevention: wound-wait",
            prevention=WoundWait(),
            initiation=DdbManualInitiation(),
        ),
    ]
    print(f"{'scheme':<26}{'commits':>9}{'aborts':>9}{'probe msgs':>12}")
    print("-" * 56)
    for label, commits, aborts, probes in rows:
        print(f"{label:<26}{commits:>9}{aborts:>9}{probes:>12}")
    detection_aborts = rows[0][2]
    assert all(r[1] == 12 * len(list(SEEDS)) for r in rows)
    print(
        "\nEveryone commits either way.  Detection aborts only real deadlock "
        "victims\n(paying probe messages proportional to blocking); prevention "
        "pays zero messages\nbut aborts on suspicion -- "
        f"{rows[1][2]}/{detection_aborts} (wait-die/detection) aborts here."
    )


if __name__ == "__main__":
    main()
