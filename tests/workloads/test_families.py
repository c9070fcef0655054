"""Registry-wide family properties: determinism, examples, semantics."""

from __future__ import annotations

import pytest

from repro.core.registry import get_variant
from repro.obs.export import events_to_jsonl
from repro.workloads.provision import ProvisionedWorkload, provision_workload
from repro.workloads.spec import all_families, get_family

#: The registered variant that drives each model's families.
MODEL_VARIANTS = {"basic": "basic", "ddb": "ddb", "ormodel": "ormodel"}


def _family_ids() -> list[str]:
    return [family.name for family in all_families()]


def _run_example(name: str) -> ProvisionedWorkload:
    family = get_family(name)
    variant = get_variant(MODEL_VARIANTS[family.models[0]])
    run = provision_workload(variant, family.example)
    run.run_to_quiescence()
    return run


@pytest.mark.parametrize("name", _family_ids())
class TestEveryFamily:
    def test_same_spec_same_trace(self, name: str) -> None:
        # The determinism contract: a spec fully determines the run on
        # the simulator backend, byte for byte.
        first = events_to_jsonl(_run_example(name).system.simulator.tracer)
        second = events_to_jsonl(_run_example(name).system.simulator.tracer)
        assert first == second

    def test_example_runs_sound_and_complete(self, name: str) -> None:
        outcome = _run_example(name).summarize()
        assert outcome.soundness_violations == 0
        assert outcome.complete
        if not get_family(name).deadlock_capable:
            assert outcome.declarations == 0

    def test_extra_fields_match_the_declaration(self, name: str) -> None:
        family = get_family(name)
        extra = _run_example(name).extra()
        assert set(extra) == set(family.outcome_fields)


@pytest.mark.parametrize("name", ("er", "ba"))
class TestEnsemblesOnTheOrModel:
    """The same ensemble family drives both models (sim half; the live
    half rides tests/transport/test_live_conformance.py via ``run()``)."""

    def test_family_declares_both_models(self, name: str) -> None:
        family = get_family(name)
        assert family.supports_model("basic")
        assert family.supports_model("ormodel")

    def test_example_runs_on_the_or_model(self, name: str) -> None:
        family = get_family(name)
        run = provision_workload(get_variant("ormodel"), family.example)
        run.run_to_quiescence()
        outcome = run.summarize()
        assert outcome.soundness_violations == 0
        assert outcome.complete
        extra = run.extra()
        assert set(extra) == set(family.outcome_fields)

    def test_or_model_random_scenario_resolves(self, name: str) -> None:
        from repro.workloads.spec import default_random_family

        assert default_random_family("ormodel").name == "er"


class TestBurstySemantics:
    def test_planted_cycle_is_the_only_deadlock(self) -> None:
        run = _run_example("bursty")
        outcome = run.summarize()
        extra = run.extra()
        # Exactly the planted 3-cycle declares, after the cycle closes.
        assert outcome.declarations == 3
        assert outcome.first_declaration_at is not None
        assert outcome.first_declaration_at > extra["cycle_closed_at"]

    def test_too_small_layouts_rejected(self) -> None:
        from repro.errors import ConfigurationError
        from repro.workloads.spec import WorkloadSpec

        with pytest.raises(ConfigurationError, match="n >= 9"):
            get_family("bursty").validate(WorkloadSpec(family="bursty", n=8))


class TestNearCycleSemantics:
    def test_near_cycle_is_not_an_alias_of_cycle(self) -> None:
        # The adversarial near-miss: same topology size, closing request
        # withheld, so the cycle declares and the near-cycle must not.
        assert _run_example("cycle").summarize().declarations > 0
        assert _run_example("near-cycle").summarize().declarations == 0

    def test_families_carry_distinct_docstrings(self) -> None:
        cycle, near = get_family("cycle"), get_family("near-cycle")
        assert cycle.description != near.description
