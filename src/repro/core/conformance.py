"""The cross-variant conformance contract.

Every registered detector variant must be able to run two standard
scenarios and summarise the outcome in one model-independent record:

* ``"deadlock"`` -- a small genuine deadlock.  The variant must declare
  (non-empty declarations), stay sound (zero violations), and cover every
  dark component.
* ``"clean"`` -- a workload whose waits all resolve.  The variant must
  stay silent and sound.

The scenarios are intentionally tiny (a handful of processes, default
delays) so the conformance suite stays in the tier-1 test budget while
still exercising assembly, declaration recording, oracle checks, and the
quiescence-time report of each variant end to end.

The *workloads* behind the scenarios resolve through the workload
registry: :data:`CONFORMANCE_WORKLOADS` maps ``(model, scenario)`` to
the :class:`~repro.workloads.spec.WorkloadSpec` each variant schedules,
so the conformance suite, ``repro run``, and every other runner all
drive the identical request patterns.  (``repro.workloads.spec`` is the
RPX004 workload seam, importable from this core-tier module.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from repro.errors import ConfigurationError
from repro.workloads.spec import WorkloadSpec

#: Scenario names every variant's ``conformance`` callable must accept.
CONFORMANCE_SCENARIOS: tuple[str, ...] = ("deadlock", "clean")

#: The workload each model schedules for each conformance scenario.
CONFORMANCE_WORKLOADS: dict[tuple[str, str], WorkloadSpec] = {
    ("basic", "deadlock"): WorkloadSpec(family="cycle", n=4),
    ("basic", "clean"): WorkloadSpec(family="chain", n=4),
    ("ddb", "deadlock"): WorkloadSpec(family="ddb-cross", n=2),
    ("ddb", "clean"): WorkloadSpec(family="ddb-disjoint", n=2),
    ("ormodel", "deadlock"): WorkloadSpec(family="or-knot", n=3),
    ("ormodel", "clean"): WorkloadSpec(family="or-clean", n=3),
}


def conformance_workload(model: str, scenario: str) -> WorkloadSpec:
    """The registered workload spec for one (model, scenario) pair.

    Raises the standard unknown-scenario error for anything outside
    :data:`CONFORMANCE_SCENARIOS` (or a model with no mapping).
    """
    try:
        return CONFORMANCE_WORKLOADS[(model, scenario)]
    except KeyError:
        unknown_scenario(model, scenario)


@dataclass(frozen=True)
class ConformanceOutcome:
    """Model-independent summary of one conformance run."""

    variant: str
    scenario: str
    #: declarations (protocol variants) or detections (overlay variants).
    declarations: int
    #: declarations that failed the variant's oracle criterion when made.
    soundness_violations: int
    #: quiescence-time completeness verdict (QRP1).
    complete: bool
    #: dark components (or deadlocked closures) left without a declarer.
    undetected_components: int = 0
    #: time (virtual units) of the first declaration, ``None`` when the
    #: run stayed silent.  On the wall-clock backends this is elapsed wall
    #: time rescaled to units: time since the run started, not a latency.
    first_declaration_at: float | None = None


def unknown_scenario(variant: str, scenario: str) -> NoReturn:
    """Shared error for conformance callables handed a bad scenario."""
    raise ConfigurationError(
        f"variant {variant!r} has no conformance scenario {scenario!r}; "
        f"choose from {', '.join(CONFORMANCE_SCENARIOS)}"
    )
