"""E7 -- section 6.7: avoiding a probe computation per constituent process.

"When a controller wishes to determine if any of its processes are
deadlocked it initiates Q separate probe computations where Q is the
number of constituent processes with incoming, black, inter-controller
edges" -- after first checking for a purely local intra-controller cycle.

The experiment runs identical DDB workloads under periodic controller
scans in *naive* mode (one computation per blocked constituent process)
and *optimised* mode (local-cycle check + Q computations), reporting
computations initiated, probes sent, and detection outcome.  Both modes
must detect every deadlock; the optimised mode must do so with fewer
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._ids import ResourceId, SiteId
from repro.analysis.tables import Table
from repro.core.registry import get_variant
from repro.ddb.initiation import DdbPeriodicInitiation
from repro.ddb.transaction import Think, TransactionSpec, acquire
from repro.ddb.locks import LockMode
from repro._ids import TransactionId

if TYPE_CHECKING:
    from repro.ddb.system import DdbSystem

#: Sweep axes (shared with the declarative grid in ``repro.sweep.grids``).
#: Each config is ``(n_sites, extra_local)``.
CONFIGS = ((3, 2), (4, 4), (6, 6), (8, 8))
QUICK_CONFIGS = ((3, 2), (4, 4))


@dataclass
class E7Result:
    label: str
    mode: str
    computations: int
    probes: int
    scans: int
    detected: bool


def ring_system(n_sites: int, extra_local: int, optimized: bool, seed: int) -> DdbSystem:
    """An n-site ring deadlock plus ``extra_local`` harmless blocked
    processes per site (they inflate the naive scan's candidate count)."""
    resources: dict[ResourceId, SiteId] = {}
    for i in range(n_sites):
        resources[ResourceId(f"ring{i}")] = SiteId(i)
        resources[ResourceId(f"hot{i}")] = SiteId(i)
    system = get_variant("ddb").build(
        n_sites=n_sites,
        resources=resources,
        seed=seed,
        initiation=DdbPeriodicInitiation(period=4.0, optimized=optimized, horizon=80.0),
    )
    X = LockMode.EXCLUSIVE
    tid = 1
    for i in range(n_sites):
        system.begin(
            TransactionSpec(
                tid=TransactionId(tid),
                home=SiteId(i),
                operations=(
                    acquire((f"ring{i}", X)),
                    Think(1.0),
                    acquire((f"ring{(i + 1) % n_sites}", X)),
                ),
            ),
            at=0.05 * i,
        )
        tid += 1
    # Local blockers: one holder per site sits on hot{i} for a long think,
    # and ``extra_local`` local transactions queue behind it.
    for i in range(n_sites):
        system.begin(
            TransactionSpec(
                tid=TransactionId(tid),
                home=SiteId(i),
                operations=(acquire((f"hot{i}", X)), Think(70.0)),
            ),
            at=0.2,
        )
        tid += 1
        for j in range(extra_local):
            system.begin(
                TransactionSpec(
                    tid=TransactionId(tid),
                    home=SiteId(i),
                    operations=(acquire((f"hot{i}", X)),),
                ),
                at=1.0 + 0.1 * j,
            )
            tid += 1
    return system


def run_config(n_sites: int, extra_local: int, optimized: bool, seed: int = 0) -> E7Result:
    system = ring_system(n_sites, extra_local, optimized, seed)
    system.run_to_quiescence(max_events=1_000_000)
    system.assert_soundness()
    return E7Result(
        label=f"{n_sites}-site ring + {extra_local} local blockers/site",
        mode="6.7 optimised" if optimized else "naive",
        computations=system.counts["ddb.computations.initiated"],
        probes=system.probes_sent,
        scans=system.counts["ddb.scans"],
        detected=bool(system.declarations) and system.completeness_report().complete,
    )


def run(quick: bool = False) -> tuple[Table, list[E7Result]]:
    configs = QUICK_CONFIGS if quick else CONFIGS
    results: list[E7Result] = []
    for n_sites, extra_local in configs:
        for optimized in (False, True):
            results.append(run_config(n_sites, extra_local, optimized))
    table = Table(
        "E7 (section 6.7): Q-initiation vs naive per-process initiation",
        ["workload", "mode", "scans", "computations", "probes", "deadlock detected"],
    )
    for result in results:
        table.add_row(
            result.label,
            result.mode,
            result.scans,
            result.computations,
            result.probes,
            "yes" if result.detected else "NO",
        )
    return table, results
