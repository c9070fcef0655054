"""Provision a (detector variant, workload spec) pair on any transport.

The one place the "build a system, schedule a workload onto it,
summarise the run" dance lives.  :func:`repro.runner.run` and ad-hoc
test harnesses call :func:`provision_workload`: it checks the
family's capability declaration against the variant's model (typed
:class:`~repro.errors.ConfigurationError` on mismatch, naming the
family), builds the system -- through the family's own factory when it
has one, else through the variant's -- schedules the workload, and
returns a handle whose ``summarize`` folds the finished run into the
standard :class:`~repro.core.conformance.ConformanceOutcome` plus the
family's declared extra outcome fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.conformance import (
    CONFORMANCE_SCENARIOS,
    ConformanceOutcome,
    conformance_workload,
)
from repro.core.registry import DetectorVariant
from repro.core.scheduling import ComputationOutcome, PolicySpec
from repro.core.scheduling import require_model as require_policy_model
from repro.errors import ConfigurationError
from repro.workloads.spec import (
    WorkloadFamily,
    WorkloadSpec,
    default_random_family,
    get_family,
    require_model,
)


def _completeness(system: Any) -> tuple[bool | None, int]:
    """Normalise the two completeness-report shapes the models use.

    Basic/OR systems return a report object (``.complete`` /
    ``.undetected_components``); the DDB system returns a bare
    ``(complete, undetected_components)`` tuple.
    """
    report = system.completeness_report()
    if isinstance(report, tuple):
        complete, undetected = report
        return bool(complete), len(undetected)
    return report.complete, len(report.undetected_components)


def build_initiation(policy: PolicySpec, model: str) -> Any:
    """Resolve ``policy`` into the model's initiation adapter.

    Each model package carries a thin adapter over the scheduling seam
    (``repro.<model>.initiation.from_policy_spec``); this is the one
    dispatch point runners share.  Raises a typed
    :class:`~repro.errors.ConfigurationError` when the policy cannot
    drive ``model``.
    """
    require_policy_model(policy, model)
    if model == "basic":
        from repro.basic.initiation import from_policy_spec
    elif model == "ddb":
        from repro.ddb.initiation import from_policy_spec
    elif model == "ormodel":
        from repro.ormodel.initiation import from_policy_spec
    else:  # pragma: no cover - registry models are closed over the three
        raise ConfigurationError(f"no initiation adapter for model {model!r}")
    return from_policy_spec(policy)


def attach_policy_feedback(
    system: Any, initiation: Any, *, n_vertices: int | None = None
) -> Any | None:
    """Stream probe-computation outcomes from the span engine to a policy.

    The adaptive policy learns from settled computations (fizzled vs
    deadlock, probe cost -- Ling et al.'s signals); this bridges the
    ``repro.obs`` streaming span engine onto the policy's
    ``on_computation_outcome`` hook.  A no-op (returns ``None``) for
    policies that do not ask for outcomes, so default runs attach no
    subscriber at all.
    """
    policy = getattr(initiation, "policy", None)
    if policy is None or not getattr(policy, "wants_outcomes", False):
        return None
    from repro.obs.spans import SCHEMAS_BY_MODEL
    from repro.obs.stream import StreamingSpanEngine

    model = system_model(system)
    schema = SCHEMAS_BY_MODEL.get(model)
    if schema is None:
        # The OR variant reports no probe taxonomy (its query/reply
        # computations are not section 4 probe computations), so its
        # adaptive policy learns from wait lifetimes alone.
        return None

    def feed(span: Any) -> None:
        policy.on_computation_outcome(
            ComputationOutcome(
                initiator=span.initiator,
                outcome=span.outcome.value,
                probes_sent=span.probes_sent,
                initiated_at=span.initiated_at,
                settled_at=span.end_time,
            )
        )

    engine = StreamingSpanEngine(
        schema,
        n_vertices=n_vertices if model == "basic" else None,
        on_span=feed,
    )
    engine.attach(system.transport.tracer)
    return engine


def system_model(system: Any) -> str:
    """The registry model a built system instance belongs to."""
    module = type(system).__module__
    if module.startswith("repro.ddb"):
        return "ddb"
    if module.startswith("repro.ormodel"):
        return "ormodel"
    return "basic"


@dataclass
class ProvisionedWorkload:
    """A built system with its workload scheduled, ready to run."""

    variant: DetectorVariant
    family: WorkloadFamily
    spec: WorkloadSpec
    system: Any
    #: whatever the family's ``schedule`` returned (driver object, edge
    #: list, ``None``); fed back to ``collect`` at summary time.
    handle: Any
    #: the resolved scheduling policy, when one was requested.
    policy: PolicySpec | None = None
    #: the span engine bridging outcomes to an adaptive policy (``None``
    #: unless the policy asked for outcome feedback).
    feedback: Any | None = field(default=None, repr=False)

    def run_to_quiescence(self, **kwargs: Any) -> None:
        self.system.run_to_quiescence(**kwargs)

    def extra(self) -> dict[str, Any]:
        """The family's declared extra outcome fields for this run."""
        if self.family.collect is None:
            return {}
        return self.family.collect(self.spec, self.system, self.handle)

    def summarize(self) -> ConformanceOutcome:
        complete, undetected = _completeness(self.system)
        return ConformanceOutcome(
            variant=self.variant.name,
            scenario=self.spec.family,
            declarations=len(self.system.declarations),
            soundness_violations=len(self.system.soundness_violations),
            complete=complete,
            undetected_components=undetected,
            first_declaration_at=(
                self.system.declarations[0].time
                if self.system.declarations
                else None
            ),
        )


def resolve_scenario_spec(
    variant: DetectorVariant,
    scenario: str,
    *,
    seed: int,
    n_vertices: int | None = None,
    duration: float | None = None,
) -> WorkloadSpec:
    """Turn a runner's scenario string into a concrete workload spec.

    ``deadlock`` / ``clean`` are the model's conformance workloads;
    ``random`` picks the variant's model's default randomized family;
    any other name must be a registered family capable of driving that
    model (typed :class:`~repro.errors.ConfigurationError` otherwise,
    naming the family and the models it does drive).  The family's
    example spec supplies the load parameters; ``seed`` always
    overrides, ``n_vertices`` / ``duration`` override when given.
    """
    model = variant.capabilities.model
    if scenario in CONFORMANCE_SCENARIOS:
        spec = conformance_workload(model, scenario).with_seed(seed)
    else:
        if scenario == "random":
            family = default_random_family(model)
        else:
            family = get_family(scenario)
            require_model(family, model)
        spec = family.example.with_seed(seed)
    if n_vertices is not None:
        spec = replace(spec, n=n_vertices)
    if duration is not None:
        spec = replace(spec, duration=duration)
    return spec


def provision_workload(
    variant: DetectorVariant,
    spec: WorkloadSpec,
    *,
    transport: Any | None = None,
    strict: bool = False,
    delay_model: Any | None = None,
    policy: PolicySpec | None = None,
) -> ProvisionedWorkload:
    """Build ``variant``'s system on ``transport`` and schedule ``spec``.

    ``strict`` defaults to ``False`` (runner semantics: violations are
    recorded, not raised) so completeness/soundness gating stays in the
    caller's report.  ``policy`` swaps the variant's default initiation
    scheduling for a registered :class:`PolicySpec`; when that policy
    learns from outcomes (``adaptive``), the span-feedback bridge is
    attached automatically and exposed as ``.feedback``.  Raises
    :class:`~repro.errors.ConfigurationError` when the family cannot
    drive the variant's model, the spec fails the family's own
    validation, or the policy cannot drive the model.
    """
    family = get_family(spec.family)
    model = variant.capabilities.model
    require_model(family, model)
    if family.validate is not None:
        family.validate(spec)
    if policy is not None and variant.capabilities.kind == "overlay":
        raise ConfigurationError(
            f"variant '{variant.name}' is an overlay bound to a host system; "
            "overlays have no initiation seam, so a scheduling policy "
            f"cannot apply (requested {policy.policy_id!r})"
        )
    initiation = None if policy is None else build_initiation(policy, model)
    policy_kwargs = {} if initiation is None else {"initiation": initiation}
    if family.build is not None:
        system = family.build(
            spec,
            transport=transport,
            strict=strict,
            delay_model=delay_model,
            **policy_kwargs,
        )
    else:
        system = variant.build(
            n_vertices=spec.n,
            seed=spec.seed,
            strict=strict,
            transport=transport,
            **({"delay_model": delay_model} if delay_model is not None else {}),
            **policy_kwargs,
        )
    feedback = (
        None
        if initiation is None
        else attach_policy_feedback(system, initiation, n_vertices=spec.n)
    )
    handle = family.schedule(spec, system)
    return ProvisionedWorkload(
        variant=variant,
        family=family,
        spec=spec,
        system=system,
        handle=handle,
        policy=policy,
        feedback=feedback,
    )
