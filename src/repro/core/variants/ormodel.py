"""Registration of the ``ormodel`` variant: the section 7 OR extension.

In the OR/communication model a blocked process is deadlocked iff no
active process is reachable along dependency edges, so the completeness
obligation is per-closure rather than per-SCC and the variant reports no
probe taxonomy (its query/reply computations are not section 4 probe
computations).  The system wrapper is
:class:`~repro.ormodel.system.OrSystem`.
"""

from __future__ import annotations

from repro.core.conformance import ConformanceOutcome, conformance_workload
from repro.core.registry import (
    DemoSpec,
    DetectorVariant,
    VariantCapabilities,
    register,
)
from repro.ormodel.system import OrSystem
from repro.workloads.spec import get_family


def _conformance(
    scenario: str, seed: int, transport: object | None = None
) -> ConformanceOutcome:
    """Run one standard scenario.

    The request pattern resolves through the workload registry's
    ``or-knot`` / ``or-clean`` families (via the RPX004 workload seam).
    """
    spec = conformance_workload("ormodel", scenario).with_seed(seed)
    system = OrSystem(
        n_vertices=spec.n, seed=seed, strict=False, transport=transport
    )
    get_family(spec.family).schedule(spec, system)
    system.run_to_quiescence()
    report = system.completeness_report()
    return ConformanceOutcome(
        variant="ormodel",
        scenario=scenario,
        declarations=len(system.declarations),
        soundness_violations=len(system.soundness_violations),
        complete=report.complete,
        undetected_components=len(report.undetected_components),
        first_declaration_at=(
            system.declarations[0].time if system.declarations else None
        ),
    )


def _demo() -> int:
    system = OrSystem(n_vertices=3)
    system.schedule_request(0.0, 1, [0])
    system.schedule_request(0.3, 2, [0])
    system.schedule_request(0.6, 0, [1, 2])
    system.run_to_quiescence()
    print("OR/communication model, knot: p0 waits any{p1,p2}, both wait any{p0}")
    for declaration in system.declarations:
        print(
            f"  t={declaration.time:.3f}  vertex {declaration.vertex} declared "
            f"OR-deadlock (tag {declaration.tag})"
        )
    system.assert_soundness()
    system.assert_completeness()
    print("  soundness + completeness verified against the OR oracle")
    return 0


OR_VARIANT = register(
    DetectorVariant(
        name="ormodel",
        title="OR/communication-model query computation (section 7)",
        capabilities=VariantCapabilities(
            model="ormodel",
            kind="protocol",
            oracle_criterion=(
                "no active vertex reachable from the declarer's closure, "
                "net of in-flight grants"
            ),
            scenarios=(),
            taxonomy=None,
        ),
        build=OrSystem,
        conformance=_conformance,
        demo=DemoSpec(
            command="or-demo",
            help="OR/communication-model knot demo (section 7 extension)",
            run=_demo,
        ),
    )
)
