"""Extension bench: the OR/communication-model detector (paper section 7).

Shape claims measured:

* the any/all difference is real: topologies that deadlock under AND
  semantics dissolve under OR semantics when any alternative is active,
  and vice versa only genuine knots deadlock;
* query/reply complexity: one engaging query per edge of the dependency
  closure plus at most one non-engaging echo per edge, and exactly one
  reply per query that is answered -- traffic linear in closure edges per
  computation;
* soundness and completeness over the structured scenarios.
"""

from repro.basic.system import BasicSystem
from repro.ormodel.system import OrSystem

from benchmarks.conftest import full_mode


def run_or_cycle(k: int) -> dict:
    system = OrSystem(n_vertices=k, trace=False)
    for i in range(k):
        system.schedule_request(0.5 * i, i, [(i + 1) % k])
    system.run_to_quiescence()
    system.assert_soundness()
    system.assert_completeness()
    return {
        "declared": len(system.declarations),
        "queries": system.counts["or.queries.sent"],
        "replies": system.counts["or.replies.sent"],
        "computations": system.counts["or.computations.initiated"],
    }


def run_any_alternative(k: int) -> dict:
    """A k-cycle where vertex 0 also waits on an active escape vertex."""
    system = OrSystem(n_vertices=k + 1, trace=False)
    system.schedule_request(0.0, 0, [1, k])
    for i in range(1, k):
        system.schedule_request(0.5 * i, i, [(i + 1) % k])
    system.run_to_quiescence()
    system.assert_soundness()
    return {
        "declared": len(system.declarations),
        "all_active": all(v.active for v in system.vertices.values()),
    }


def run_and_same_topology(k: int) -> dict:
    system = BasicSystem(n_vertices=k + 1, trace=False)
    system.schedule_request(0.0, 0, [1, k])
    for i in range(1, k):
        system.schedule_request(0.5 * i, i, [(i + 1) % k])
    system.run_to_quiescence()
    system.assert_soundness()
    return {"declared": len(system.declarations)}


def test_or_model_extension(benchmark, record_table):
    sizes = (2, 3, 5, 8, 16) if full_mode() else (2, 3, 5, 8)

    def run():
        return {
            "cycles": {k: run_or_cycle(k) for k in sizes},
            "alternative_or": {k: run_any_alternative(k) for k in sizes},
            "alternative_and": {k: run_and_same_topology(k) for k in sizes},
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.analysis.tables import Table

    table = Table(
        "Extension (section 7): OR/communication-model detector",
        ["scenario", "k", "declared", "queries", "replies"],
    )
    for k, outcome in results["cycles"].items():
        table.add_row("OR k-cycle (deadlock)", k, outcome["declared"],
                      outcome["queries"], outcome["replies"])
    for k, outcome in results["alternative_or"].items():
        table.add_row("OR cycle + active alternative", k, outcome["declared"], 0, 0)
    record_table("or_model", table.render())

    for k, outcome in results["cycles"].items():
        # Every OR cycle is detected ...
        assert outcome["declared"] >= 1
        # ... within linear traffic: per computation at most one engaging
        # query and one echo per closure edge (k edges on a k-cycle).
        assert outcome["queries"] <= 2 * k * outcome["computations"]
        assert outcome["replies"] <= outcome["queries"]
    for k, outcome in results["alternative_or"].items():
        # The any/all difference: OR semantics dissolve the wait ...
        assert outcome["declared"] == 0
        assert outcome["all_active"]
        # ... while AND semantics on the same topology deadlock.
        assert results["alternative_and"][k]["declared"] >= 1
