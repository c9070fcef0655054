"""Shared graph algorithms used by the verification layers.

Kept dependency-free and generic over hashable node types so both the
basic-model (``VertexId``) and DDB (``ProcessId``) verification code use
the same, well-tested implementation.  :func:`discard_edge` also keeps
the DDB controllers' intra-edge index.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import TypeVar

Node = TypeVar("Node", bound=Hashable)


def cyclic_sccs(adjacency: Mapping[Node, Iterable[Node]]) -> list[set[Node]]:
    """Strongly connected components that contain a cycle.

    Uses an iterative Tarjan (no recursion limit on long chains).  Since
    wait-for graphs have no self-loops, a component contains a cycle iff
    it has more than one node; singleton components are dropped.
    """
    index_counter = [0]
    stack: list[Node] = []
    on_stack: set[Node] = set()
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    components: list[set[Node]] = []

    def strongconnect(root: Node) -> None:
        work: list[tuple[Node, Iterable[Node]]] = [(root, iter(adjacency.get(root, ())))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(component)

    for node in list(adjacency):
        if node not in index:
            strongconnect(node)
    return components


def discard_edge(adjacency: dict[Node, set[Node]], source: Node, target: Node) -> None:
    """Remove ``source -> target`` from a successor index, and ``source``'s
    entry once it is empty, so an index over finished nodes stays empty."""
    targets = adjacency.get(source)
    if targets is not None:
        targets.discard(target)
        if not targets:
            del adjacency[source]
