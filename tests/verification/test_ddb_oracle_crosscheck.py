"""Cross-validation of the DDB oracle's dark-cycle queries against networkx.

The DDB counterpart of ``test_oracle_crosscheck.py``.  The oracle answers
from its dark adjacency (one Tarjan pass for the cyclic SCCs, a DFS for one
process); the reference reads the colour-filtered ``edges()`` instead and
finds the cyclic SCCs with networkx, or, where networkx is not installed,
groups the processes that walk back to themselves by mutual reachability.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._ids import ProcessId, SiteId, TransactionId
from repro.basic.graph import EdgeColor
from repro.core.registry import get_variant
from repro.ddb.graph import DdbWaitForGraph
from repro.sim.network import ExponentialDelay
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, make_params

from tests.ddb.helpers import dark_edges_by_colour, on_dark_cycle_by_colour


def p(transaction: int, site: int) -> ProcessId:
    return ProcessId(TransactionId(transaction), SiteId(site))


def independent_dark_cycle_components(graph: DdbWaitForGraph) -> set[frozenset[ProcessId]]:
    try:
        import networkx as nx
    except ImportError:  # networkx is an optional (analysis) dependency
        on_cycle = [
            process
            for process in graph.processes()
            if on_dark_cycle_by_colour(graph, process)
        ]
        reach = {process: reachable_by_colour(graph, process) for process in on_cycle}
        return {
            frozenset(q for q in on_cycle if q in reach[process] and process in reach[q])
            for process in on_cycle
        }
    digraph = nx.DiGraph()
    digraph.add_edges_from(dark_edges_by_colour(graph))
    return {
        frozenset(component)
        for component in nx.strongly_connected_components(digraph)
        if len(component) > 1
    }


def reachable_by_colour(graph: DdbWaitForGraph, source: ProcessId) -> set[ProcessId]:
    """Processes reachable from ``source`` along colour-filtered dark edges."""
    successors: dict[ProcessId, list[ProcessId]] = {}
    for a, b in dark_edges_by_colour(graph):
        successors.setdefault(a, []).append(b)
    reached = {source}
    stack = [source]
    while stack:
        for successor in successors.get(stack.pop(), ()):
            if successor not in reached:
                reached.add(successor)
                stack.append(successor)
    return reached


def assert_agrees(graph: DdbWaitForGraph) -> None:
    expected = independent_dark_cycle_components(graph)
    components = graph.dark_cycle_components()
    assert len(components) == len(expected)
    assert {frozenset(component) for component in components} == expected
    deadlocked: set[ProcessId] = set().union(*expected)
    assert graph.processes_on_dark_cycles() == deadlocked
    for process in graph.processes():
        assert graph.is_on_dark_cycle(process) == (process in deadlocked)
    assert sorted(graph.dark_edges()) == sorted(dark_edges_by_colour(graph))


# An operation on a graph of 4 transactions x 3 sites: (kind, t1, s1, t2, s2).
# kind 0: intra edge (t1,s1) -> (t2,s1); kind 1-3: inter edge (t1,s1) ->
# (t1,s2) left grey (1), blackened (2) or blackened then whitened (3, only
# when G5 allows it); kind 4: remove whatever edge (t1,s1) -> (t2,s2) is
# there, by G2/G6 when they allow it and by the abort path otherwise.
OPERATIONS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(0, 2),
    ),
    max_size=40,
)


@given(OPERATIONS)
@settings(max_examples=150, deadline=None)
def test_random_coloured_graphs(operations: list[tuple[int, int, int, int, int]]) -> None:
    graph = DdbWaitForGraph()
    serials: dict[tuple[ProcessId, ProcessId], int] = {}
    for kind, t1, s1, t2, s2 in operations:
        if kind == 0:
            source, target = p(t1, s1), p(t2, s1)
            if source != target and not graph.has_edge(source, target):
                graph.add_intra_edge(source, target)
        elif kind in (1, 2, 3):
            source, target = p(t1, s1), p(t1, s2)
            if source == target or graph.has_edge(source, target):
                continue
            serial = serials[(source, target)] = len(serials) + 1
            graph.add_inter_edge(source, target, serial)
            if kind >= 2:
                graph.blacken_inter_edge(source, target, serial)
            if kind == 3 and not graph.successors(target):
                graph.whiten_inter_edge(source, target, serial)
        else:
            source, target = p(t1, s1), p(t2, s2)
            color = graph.color(source, target)
            if color is None:
                continue
            if source.site == target.site:
                if graph.successors(target):
                    graph.force_remove_intra_edge(source, target)
                else:
                    graph.remove_intra_edge(source, target)
            elif color is EdgeColor.WHITE:
                graph.delete_inter_edge(source, target, serials[(source, target)])
            else:
                graph.force_remove_inter_edge(source, target)
        assert_agrees(graph)


def test_end_states_of_random_ddb_hot_runs() -> None:
    deadlocked_runs = 0
    for seed in range(6):
        spec = WorkloadSpec(
            family="ddb-hot",
            n=4,
            seed=seed,
            params=make_params(resources=12, load=3, window=15, resolve=0),
        )
        run = provision_workload(
            get_variant("ddb"), spec, delay_model=ExponentialDelay(mean=1.0)
        )
        run.run_to_quiescence(max_events=200_000)
        oracle = run.system.oracle
        assert_agrees(oracle)
        deadlocked_runs += bool(oracle.processes_on_dark_cycles())
    assert deadlocked_runs, "no run ended deadlocked: the comparison is vacuous"
