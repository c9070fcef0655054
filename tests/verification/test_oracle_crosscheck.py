"""Cross-validation of the oracle's cycle detection against networkx."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._ids import VertexId
from repro.basic.graph import EdgeColor, WaitForGraph
from repro.basic.system import BasicSystem
from repro.verification.oracle import independent_dark_cycle_vertices
from repro.workloads.basic_random import RandomRequestWorkload


def v(i: int) -> VertexId:
    return VertexId(i)


class TestAgreementOnConstructedGraphs:
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_dark_graphs(self, raw_edges: list[tuple[int, int]]) -> None:
        graph = WaitForGraph()
        seen: set[tuple[int, int]] = set()
        for a, b in raw_edges:
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            graph.create_edge(v(a), v(b))
        assert graph.vertices_on_dark_cycles() == independent_dark_cycle_vertices(graph)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)),
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_coloured_graphs(self, raw: list[tuple[int, int, int]]) -> None:
        # colour code: 0 grey, 1 black, 2 white (white only when legal).
        graph = WaitForGraph()
        seen: set[tuple[int, int]] = set()
        for a, b, colour in raw:
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            graph.create_edge(v(a), v(b))
            if colour >= 1:
                graph.blacken(v(a), v(b))
            if colour == 2 and not graph.successors(v(b)):
                graph.whiten(v(a), v(b))
        assert graph.vertices_on_dark_cycles() == independent_dark_cycle_vertices(graph)


class TestAgreementOnLiveSystems:
    def test_after_random_workload(self) -> None:
        for seed in range(4):
            system = BasicSystem(n_vertices=8, seed=seed)
            RandomRequestWorkload(system, duration=30.0).start()
            system.run_to_quiescence(max_events=300_000)
            assert system.oracle.vertices_on_dark_cycles() == (
                independent_dark_cycle_vertices(system.oracle)
            )


DARK = frozenset({EdgeColor.GREY, EdgeColor.BLACK})
BLACK = frozenset({EdgeColor.BLACK})
N_VERTICES = 5


def edges_by_colour(
    graph: WaitForGraph, colours: frozenset[EdgeColor]
) -> dict[VertexId, set[VertexId]]:
    """The edges whose colour is in ``colours``, by source, read from
    ``edges()`` rather than the oracle's indexes."""
    adjacency: dict[VertexId, set[VertexId]] = {}
    for (source, target), colour in graph.edges():
        if colour in colours:
            adjacency.setdefault(source, set()).add(target)
    return adjacency


def on_cycle_reference(graph: WaitForGraph, colours: frozenset[EdgeColor]) -> set[VertexId]:
    """Vertices on a cycle of ``colours`` edges: networkx SCCs, or, where
    networkx is not installed, a colour-filtered DFS per vertex."""
    adjacency = edges_by_colour(graph, colours)
    try:
        import networkx as nx
    except ImportError:  # networkx is an optional (analysis) dependency
        on_cycle = set()
        for vertex in map(v, range(N_VERTICES)):
            stack, seen = [vertex], set()
            while stack:
                for successor in adjacency.get(stack.pop(), ()):
                    if successor == vertex:
                        on_cycle.add(vertex)
                    elif successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
        return on_cycle
    digraph = nx.DiGraph()
    digraph.add_edges_from(
        (source, target) for source, targets in adjacency.items() for target in targets
    )
    return {
        vertex
        for component in nx.strongly_connected_components(digraph)
        if len(component) > 1
        for vertex in component
    }


# One step of the underlying computation on 5 vertices: (axiom, a, b).
# Axiom 0 creates a -> b (G1) when no such edge exists.  Axioms 1-3 act on
# an existing edge, the (5a + b)-th of those the axiom may take: a grey
# edge turns black (G2), a black edge whose target has no outgoing edge
# turns white (G3), a white edge is deleted (G4).  A step with no legal
# edge is skipped.
OPERATIONS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, N_VERTICES - 1),
        st.integers(0, N_VERTICES - 1),
    ),
    min_size=10,
    max_size=60,
)


def _legal_edges(graph: WaitForGraph, axiom: int) -> list[tuple[VertexId, VertexId]]:
    if axiom == 1:
        return [edge for edge, colour in graph.edges() if colour is EdgeColor.GREY]
    if axiom == 2:
        return [
            (source, target)
            for (source, target), colour in graph.edges()
            if colour is EdgeColor.BLACK and not graph.successors(target)
        ]
    return [edge for edge, colour in graph.edges() if colour is EdgeColor.WHITE]


@given(OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_colour_indexes_track_every_g1_to_g4_step(
    operations: list[tuple[int, int, int]],
) -> None:
    graph = WaitForGraph()
    for axiom, a, b in operations:
        if axiom == 0:
            if a == b or graph.has_edge(v(a), v(b)):
                continue
            graph.create_edge(v(a), v(b))
        else:
            edges = _legal_edges(graph, axiom)
            if not edges:
                continue
            source, target = edges[(N_VERTICES * a + b) % len(edges)]
            step = {1: graph.blacken, 2: graph.whiten, 3: graph.delete_edge}[axiom]
            step(source, target)
        assert graph._dark_out == edges_by_colour(graph, DARK)
        assert graph._black_out == edges_by_colour(graph, BLACK)
        on_dark = on_cycle_reference(graph, DARK)
        on_black = on_cycle_reference(graph, BLACK)
        for vertex in map(v, range(N_VERTICES)):
            assert graph.is_on_dark_cycle(vertex) == (vertex in on_dark)
            assert graph.is_on_black_cycle(vertex) == (vertex in on_black)
        assert graph.vertices_on_dark_cycles() == on_dark
