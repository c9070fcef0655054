"""E6 -- section 5: the WFGD computation.

Claims measured:

* every vertex with a permanent black path leading from it learns *all*
  such paths (checked edge-for-edge against the oracle's ground truth);
* the computation terminates (a vertex never sends the same edge set
  twice to the same target), with bounded message volume.

The workload family is a k-cycle plus attached waiting tails of varying
shapes -- the tails are deadlocked but not on the cycle, so only WFGD can
inform them (they never declare, by Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._ids import VertexId
from repro.analysis.tables import Table
from repro.core.registry import get_variant
from repro.workloads.scenarios import schedule_cycle_with_tails

#: Sweep axes (shared with the declarative grid in ``repro.sweep.grids``).
#: Each config is ``(cycle_size, tail lengths)``; a tail of length L is a
#: chain of L extra vertices waiting into the cycle.
QUICK_CONFIGS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (3, ()),
    (3, (1,)),
    (4, (1, 2)),
    (5, (3,)),
)
CONFIGS: tuple[tuple[int, tuple[int, ...]], ...] = QUICK_CONFIGS + (
    (8, (2, 1, 3)),
    (12, (5,)),
)


@dataclass
class E6Result:
    label: str
    deadlocked_vertices: int
    informed_vertices: int
    exact_path_sets: int
    wfgd_messages: int

    @property
    def all_informed_exactly(self) -> bool:
        return (
            self.informed_vertices == self.deadlocked_vertices
            and self.exact_path_sets == self.deadlocked_vertices
        )


def run_config(cycle_size: int, tails: tuple[int, ...], seed: int = 0) -> E6Result:
    """Run one config; ``tails`` gives the length of each attached tail."""
    n = cycle_size + sum(tails)
    cycle = list(range(cycle_size))
    offset = cycle_size
    tail_ids: list[list[int]] = []
    for length in tails:
        tail_ids.append(list(range(offset, offset + length)))
        offset += length
    system = get_variant("basic").build(n_vertices=n, seed=seed, wfgd_on_declare=True)
    schedule_cycle_with_tails(system, cycle, tail_ids)
    system.run_to_quiescence()
    system.assert_soundness()

    permanently_blocked = [
        v
        for v in range(n)
        if system.oracle.permanent_black_edges_from(VertexId(v))
    ]
    informed = exact = 0
    for v in permanently_blocked:
        vertex = system.vertex(v)
        if vertex.deadlocked:
            informed += 1
        expected = system.oracle.permanent_black_edges_from(VertexId(v))
        if vertex.wfgd.paths == expected:
            exact += 1
    return E6Result(
        label=f"{cycle_size}-cycle + tails {[len(t) for t in tail_ids]}",
        deadlocked_vertices=len(permanently_blocked),
        informed_vertices=informed,
        exact_path_sets=exact,
        wfgd_messages=system.counts["basic.wfgd.sent"],
    )


def run(quick: bool = False) -> tuple[Table, list[E6Result]]:
    configs = QUICK_CONFIGS if quick else CONFIGS
    results = [run_config(cycle_size, tails) for cycle_size, tails in configs]
    table = Table(
        "E6 (section 5): WFGD propagation to all deadlocked vertices",
        [
            "workload",
            "deadlocked vertices",
            "informed",
            "exact path sets",
            "WFGD messages",
        ],
    )
    for result in results:
        table.add_row(
            result.label,
            result.deadlocked_vertices,
            result.informed_vertices,
            result.exact_path_sets,
            result.wfgd_messages,
        )
    return table, results
