"""E4 -- section 4.3 state bound: per-vertex detector state is O(N).

"If probe computation (i, n) is initiated, all probe computations (i, k)
with k < n may be ignored.  Therefore, every vertex need only keep track
of one, (the latest) probe computation initiated by each vertex.  Hence
every process must keep track of N probe computations where N is the
number of vertices in the graph."

The experiment has every vertex of a standing N-cycle initiate R rounds of
computations, then inspects every vertex's engine: the number of tracked
records must never exceed N, no matter how large R grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import Table
from repro.basic.initiation import ManualInitiation
from repro.core.registry import get_variant
from repro.workloads.scenarios import schedule_cycle

#: Sweep axes (shared with the declarative grid in ``repro.sweep.grids``).
CONFIGS = ((4, 5), (8, 10), (16, 20), (32, 20))
QUICK_CONFIGS = ((4, 5), (8, 10))


@dataclass
class E4Result:
    n_vertices: int
    computations_initiated: int
    max_tracked_records: int

    @property
    def within_bound(self) -> bool:
        return self.max_tracked_records <= self.n_vertices


def run_config(n: int, rounds: int, seed: int = 0) -> E4Result:
    system = get_variant("basic").build(n_vertices=n, seed=seed, initiation=ManualInitiation())
    schedule_cycle(system, list(range(n)))
    system.run_to_quiescence()
    for round_index in range(rounds):
        for i in range(n):
            system.simulator.schedule(
                10.0 * (round_index + 1) + 0.01 * i,
                system.vertex(i).initiate_probe_computation,
            )
    system.run_to_quiescence()
    system.assert_soundness()
    max_tracked = max(
        vertex.engine.tracked_computations for vertex in system.vertices.values()
    )
    return E4Result(
        n_vertices=n,
        computations_initiated=system.counts["basic.computations.initiated"],
        max_tracked_records=max_tracked,
    )


def run(quick: bool = False) -> tuple[Table, list[E4Result]]:
    configs = QUICK_CONFIGS if quick else CONFIGS
    results = [run_config(n, rounds) for n, rounds in configs]
    table = Table(
        "E4 (section 4.3): per-vertex detector state is O(N)",
        [
            "N (vertices)",
            "computations initiated",
            "max records at any vertex",
            "bound (N)",
            "within bound",
        ],
    )
    for result in results:
        table.add_row(
            result.n_vertices,
            result.computations_initiated,
            result.max_tracked_records,
            result.n_vertices,
            "yes" if result.within_bound else "NO",
        )
    return table, results
