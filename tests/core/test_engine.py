"""Unit tests for the shared protocol-engine bookkeeping + assembly."""

from __future__ import annotations

import pytest

from repro._ids import ProbeTag
from repro.core import (
    CompletenessReport,
    DeclarationLog,
    ProbeAccounting,
    build_runtime,
    completeness_report,
    dark_components,
    require_fleet,
)
from repro.errors import ConfigurationError


class TestDarkComponents:
    def test_empty_graph_has_no_components(self) -> None:
        assert dark_components([]) == []

    def test_chain_has_no_cyclic_component(self) -> None:
        assert dark_components([(0, 1), (1, 2), (2, 3)]) == []

    def test_cycle_is_one_component(self) -> None:
        components = dark_components([(0, 1), (1, 2), (2, 0)])
        assert components == [{0, 1, 2}]

    def test_two_disjoint_cycles(self) -> None:
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 0)]
        components = dark_components(edges)
        assert sorted(components, key=min) == [{0, 1}, {2, 3}]

    def test_generic_over_node_type(self) -> None:
        components = dark_components([("a", "b"), ("b", "a")])
        assert components == [{"a", "b"}]


class TestCompletenessReport:
    def test_complete_when_every_component_has_a_declarer(self) -> None:
        report = completeness_report([(0, 1), (1, 0), (2, 3), (3, 2)], declared={0, 2})
        assert report.complete
        assert report.undetected_components == []
        assert report.deadlocked_vertices == {0, 1, 2, 3}
        assert report.declared_vertices == {0, 2}

    def test_undeclared_component_is_reported(self) -> None:
        report = completeness_report([(0, 1), (1, 0), (2, 3), (3, 2)], declared={0})
        assert not report.complete
        assert report.undetected_components == [{2, 3}]

    def test_acyclic_dark_subgraph_is_trivially_complete(self) -> None:
        report = completeness_report([(0, 1), (1, 2)], declared=set())
        assert report.complete

    def test_report_type_is_exported(self) -> None:
        report: CompletenessReport[int] = completeness_report([], declared=set())
        assert isinstance(report, CompletenessReport)


class TestDeclarationLog:
    def test_sound_declarations_accumulate(self) -> None:
        log: DeclarationLog[str] = DeclarationLog(strict=True)
        log.record("d1", sound=True, complaint="unused")
        log.record("d2", sound=True, complaint="unused")
        assert log.declarations == ["d1", "d2"]
        assert log.violations == []
        assert len(log) == 2
        log.assert_sound("prefix: ")

    def test_strict_mode_raises_on_unsound_declaration(self) -> None:
        log: DeclarationLog[str] = DeclarationLog(strict=True)
        with pytest.raises(AssertionError, match="phantom at t=3"):
            log.record("bad", sound=False, complaint="phantom at t=3")
        # the declaration and the violation are recorded before the raise
        assert log.declarations == ["bad"]
        assert log.violations == ["bad"]

    def test_record_mode_counts_violations(self) -> None:
        log: DeclarationLog[str] = DeclarationLog(strict=False)
        log.record("bad", sound=False, complaint="unused")
        log.record("good", sound=True, complaint="unused")
        assert log.violations == ["bad"]
        with pytest.raises(AssertionError, match=r"QRP2 violated by: \['bad'\]"):
            log.assert_sound("QRP2 violated by: ")

    def test_repr_summarises_counts(self) -> None:
        log: DeclarationLog[str] = DeclarationLog(strict=False)
        log.record("bad", sound=False, complaint="unused")
        assert repr(log) == "DeclarationLog(declared=1, violations=1, strict=False)"


class TestProbeAccounting:
    def test_counts_per_tag(self) -> None:
        accounting = ProbeAccounting()
        tag_a, tag_b = ProbeTag(0, 1), ProbeTag(1, 1)
        accounting.count(tag_a)
        accounting.count(tag_a)
        accounting.count(tag_b)
        assert accounting.per_computation == {tag_a: 2, tag_b: 1}
        assert accounting.max_per_computation() == 2

    def test_empty_max_is_zero(self) -> None:
        assert ProbeAccounting().max_per_computation() == 0
        assert "computations=0" in repr(ProbeAccounting())


class TestAssembly:
    def test_runtime_is_deterministic_per_seed(self) -> None:
        one = build_runtime(seed=7, trace=False)
        two = build_runtime(seed=7, trace=False)
        draws_one = [one.simulator.rng.stream("test").random() for _ in range(5)]
        draws_two = [two.simulator.rng.stream("test").random() for _ in range(5)]
        assert draws_one == draws_two

    def test_network_is_bound_to_the_simulator(self) -> None:
        runtime = build_runtime(seed=0)
        assert runtime.network.simulator is runtime.simulator

    def test_require_fleet_accepts_positive_counts(self) -> None:
        require_fleet(1, "vertex")
        require_fleet(64, "site")

    def test_require_fleet_rejects_empty_fleets(self) -> None:
        with pytest.raises(ConfigurationError, match="need at least one vertex, got 0"):
            require_fleet(0, "vertex")
        with pytest.raises(ConfigurationError, match="need at least one site, got -1"):
            require_fleet(-1, "site")
