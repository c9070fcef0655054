"""Tests for identifiers, the error hierarchy, and shared algorithms."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from repro._algo import cyclic_sccs, discard_edge
from repro._ids import ProbeTag, ProcessId, SiteId, TransactionId
from repro.cluster.frames import decode_value, encode_value
from repro.errors import (
    AxiomViolation,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    TransactionAborted,
)
from repro.obs.export import event_from_dict, event_to_dict
from repro.sim.trace import TraceEvent


class TestProbeTag:
    def test_supersedes_same_initiator_only(self) -> None:
        assert ProbeTag(1, 3).supersedes(ProbeTag(1, 2))
        assert not ProbeTag(1, 2).supersedes(ProbeTag(1, 3))
        assert not ProbeTag(1, 3).supersedes(ProbeTag(2, 2))

    def test_ordering_and_str(self) -> None:
        assert ProbeTag(1, 2) < ProbeTag(1, 3) < ProbeTag(2, 1)
        assert str(ProbeTag(4, 7)) == "(4,7)"

    def test_hashable(self) -> None:
        assert len({ProbeTag(1, 1), ProbeTag(1, 1), ProbeTag(1, 2)}) == 2


def pid(transaction: int, site: int) -> ProcessId:
    return ProcessId(TransactionId(transaction), SiteId(site))


class TestProcessId:
    def test_str(self) -> None:
        pid = ProcessId(transaction=TransactionId(3), site=SiteId(1))
        assert str(pid) == "(T3,S1)"

    def test_ordering(self) -> None:
        a = ProcessId(TransactionId(1), SiteId(2))
        b = ProcessId(TransactionId(2), SiteId(0))
        assert a < b

    def test_repr_and_fields(self) -> None:
        process = pid(3, 1)
        assert repr(process) == "ProcessId(transaction=3, site=1)"
        assert (process.transaction, process.site) == (3, 1)
        assert [f.name for f in dataclasses.fields(process)] == ["transaction", "site"]
        assert dataclasses.asdict(process) == {"transaction": 3, "site": 1}

    def test_hash_is_the_tuples(self) -> None:
        # Sets and dicts of processes iterate in an order fixed by this hash.
        for transaction, site in ((0, 0), (3, 1), (239, 4), (10**6, 7)):
            assert hash(pid(transaction, site)) == hash((transaction, site))

    def test_sorts_lexicographically_on_transaction_then_site(self) -> None:
        processes = [pid(2, 0), pid(1, 5), pid(1, 2), pid(10, 1), pid(2, 3)]
        assert sorted(processes) == [pid(1, 2), pid(1, 5), pid(2, 0), pid(2, 3), pid(10, 1)]
        assert max(processes) == pid(10, 1)

    def test_equals_the_plain_tuple(self) -> None:
        # Documented behaviour: a ProcessId is the tuple (transaction, site).
        assert pid(3, 1) == (3, 1)
        assert (3, 1) == pid(3, 1)
        assert pid(3, 1) != (1, 3)
        assert pid(3, 1) != ProbeTag(3, 1)
        assert {pid(3, 1): "x"}[(3, 1)] == "x"

    def test_pickle_and_deepcopy_keep_the_type(self) -> None:
        process = pid(7, 2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(process, protocol))
            assert type(restored) is ProcessId and restored == process
        for clone in (copy.copy(process), copy.deepcopy(process)):
            assert type(clone) is ProcessId and clone == process

    def test_frozen(self) -> None:
        process = pid(7, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            process.site = SiteId(3)  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            process.extra = 1  # type: ignore[attr-defined]
        assert process == pid(7, 2)

    def test_trace_export_round_trips_it_as_a_dataclass(self) -> None:
        event = TraceEvent(time=1.5, category="ddb.edge.added", details={"source": pid(7, 2)})
        encoded = json.loads(json.dumps(event_to_dict(event)))
        assert encoded["details"]["source"] == {
            "~kind": "dataclass",
            "type": "repro._ids.ProcessId",
            "fields": {"transaction": 7, "site": 2},
        }
        decoded = event_from_dict(encoded)["source"]
        assert type(decoded) is ProcessId and decoded == pid(7, 2)

    def test_cluster_frames_round_trip_it_as_a_dataclass(self) -> None:
        encoded = json.loads(json.dumps(encode_value(pid(7, 2))))
        assert encoded == {
            "__repro__": "dataclass",
            "type": "repro._ids:ProcessId",
            "fields": {"transaction": 7, "site": 2},
        }
        decoded = decode_value(encoded)
        assert type(decoded) is ProcessId and decoded == pid(7, 2)


class TestErrors:
    def test_hierarchy(self) -> None:
        for error_type in (
            SimulationError,
            ConfigurationError,
            AxiomViolation,
            ProtocolError,
            TransactionAborted,
        ):
            assert issubclass(error_type, ReproError)

    def test_axiom_violation_carries_axiom(self) -> None:
        error = AxiomViolation("G3", "whatever")
        assert error.axiom == "G3"
        assert "G3" in str(error)

    def test_transaction_aborted_fields(self) -> None:
        error = TransactionAborted(7, "victim")
        assert error.transaction == 7
        assert "T7" in str(error)


class TestCyclicSccs:
    def test_simple_cycle(self) -> None:
        assert cyclic_sccs({0: [1], 1: [0]}) == [{0, 1}]

    def test_acyclic(self) -> None:
        assert cyclic_sccs({0: [1], 1: [2], 2: []}) == []

    def test_two_components(self) -> None:
        components = cyclic_sccs({0: [1], 1: [0], 2: [3], 3: [4], 4: [2], 5: [0]})
        assert {frozenset(c) for c in components} == {
            frozenset({0, 1}),
            frozenset({2, 3, 4}),
        }

    def test_long_chain_no_recursion_error(self) -> None:
        n = 5000
        adjacency = {i: [i + 1] for i in range(n)}
        adjacency[n] = [0]
        components = cyclic_sccs(adjacency)
        assert len(components) == 1
        assert len(components[0]) == n + 1

    def test_nested_cycles_merge_into_one_scc(self) -> None:
        adjacency = {0: [1], 1: [2, 0], 2: [0]}
        assert cyclic_sccs(adjacency) == [{0, 1, 2}]

    def test_networkx_agreement_on_random_graphs(self) -> None:
        import random

        import networkx as nx

        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(2, 12)
            edges = {
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 25))
            }
            adjacency: dict[int, list[int]] = {}
            digraph = nx.DiGraph()
            for a, b in edges:
                if a == b:
                    continue
                adjacency.setdefault(a, []).append(b)
                digraph.add_edge(a, b)
            ours = {frozenset(c) for c in cyclic_sccs(adjacency)}
            theirs = {
                frozenset(c)
                for c in nx.strongly_connected_components(digraph)
                if len(c) > 1
            }
            assert ours == theirs


class TestDiscardEdge:
    def test_drops_the_edge_then_the_empty_entry(self) -> None:
        adjacency = {0: {1, 2}, 3: {0}}
        discard_edge(adjacency, 0, 1)
        assert adjacency == {0: {2}, 3: {0}}
        discard_edge(adjacency, 0, 2)
        assert adjacency == {3: {0}}

    def test_absent_edges_are_ignored(self) -> None:
        adjacency = {0: {1}}
        discard_edge(adjacency, 0, 5)
        discard_edge(adjacency, 7, 1)
        assert adjacency == {0: {1}}
