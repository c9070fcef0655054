"""Cross-variant conformance: every registered variant, both scenarios.

This suite is the demonstration of the extension contract: it names no
variant explicitly, so a newly registered detector is picked up and held
to the same bar (declare on a genuine deadlock, stay silent on a clean
run, zero soundness violations either way) without any test edits.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    CONFORMANCE_SCENARIOS,
    CompletenessReport,
    all_variants,
    get_variant,
)
from repro.core.conformance import conformance_workload
from repro.errors import ConfigurationError
from repro.workloads.provision import provision_workload


def _variant_ids() -> list[str]:
    return [variant.name for variant in all_variants()]


@pytest.mark.parametrize("name", _variant_ids())
class TestEveryVariant:
    def test_deadlock_scenario_declares_soundly_and_completely(
        self, name: str
    ) -> None:
        variant = get_variant(name)
        outcome = variant.conformance("deadlock", 0)
        assert outcome.variant == name
        assert outcome.scenario == "deadlock"
        assert outcome.declarations > 0, f"{name} missed a genuine deadlock"
        assert outcome.soundness_violations == 0
        assert outcome.complete is True
        assert outcome.undetected_components == 0

    def test_clean_scenario_stays_silent(self, name: str) -> None:
        outcome = get_variant(name).conformance("clean", 0)
        assert outcome.scenario == "clean"
        assert outcome.declarations == 0, f"{name} declared on a clean run"
        assert outcome.soundness_violations == 0

    def test_deadlock_outcome_is_seed_independent(self, name: str) -> None:
        first = get_variant(name).conformance("deadlock", 1)
        second = get_variant(name).conformance("deadlock", 2)
        assert first.declarations > 0
        assert second.declarations > 0
        assert first.soundness_violations == second.soundness_violations == 0

    def test_unknown_scenario_is_rejected(self, name: str) -> None:
        with pytest.raises(ConfigurationError, match="no conformance scenario"):
            get_variant(name).conformance("no-such-scenario", 0)


def test_scenario_names_are_the_shared_contract() -> None:
    assert CONFORMANCE_SCENARIOS == ("deadlock", "clean")


def _protocol_ids() -> list[str]:
    return [v.name for v in all_variants() if v.capabilities.kind == "protocol"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", CONFORMANCE_SCENARIOS)
@pytest.mark.parametrize("name", _protocol_ids())
def test_conformance_agrees_with_provisioning(name: str, scenario: str, seed: int) -> None:
    # Both paths fold the run through the system's one outcome method; they
    # differ only in the scenario they name (conformance's, or the family).
    variant = get_variant(name)
    spec = conformance_workload(variant.capabilities.model, scenario).with_seed(seed)
    run = provision_workload(variant, spec)
    run.run_to_quiescence()
    provisioned = run.summarize()
    assert provisioned.scenario == spec.family
    assert variant.conformance(scenario, seed) == replace(provisioned, scenario=scenario)
    report = run.system.completeness_report()
    assert isinstance(report, CompletenessReport)
    assert report.complete is provisioned.complete
