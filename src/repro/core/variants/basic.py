"""Registration of the ``basic`` variant: the paper's probe computation.

The basic model (sections 2-4) is the reference detector: AND-model
resource waits, one probe computation per initiation, declaration when a
probe ``(i, n)`` returns to vertex ``i``.  The system wrapper is
:class:`~repro.basic.system.BasicSystem`; this module only describes it
to the registry and supplies the standard conformance scenarios and the
``quickstart`` demo.
"""

from __future__ import annotations

from repro.basic.system import BasicSystem
from repro.core.conformance import ConformanceOutcome, conformance_workload
from repro.core.registry import (
    DemoSpec,
    DetectorVariant,
    MessageTaxonomy,
    VariantCapabilities,
    register,
)
from repro.sim import categories
from repro.workloads.spec import WorkloadSpec, get_family


def _conformance(
    scenario: str, seed: int, transport: object | None = None
) -> ConformanceOutcome:
    """Run one standard scenario.

    The request pattern resolves through the workload registry (via the
    RPX004 workload seam), so conformance runs the same ``cycle`` /
    ``chain`` families every other runner schedules.
    """
    spec = conformance_workload("basic", scenario).with_seed(seed)
    system = BasicSystem(
        n_vertices=spec.n, seed=seed, strict=False, transport=transport
    )
    get_family(spec.family).schedule(spec, system)
    system.run_to_quiescence()
    report = system.completeness_report()
    return ConformanceOutcome(
        variant="basic",
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
    system = BasicSystem(n_vertices=3, wfgd_on_declare=True)
    get_family("cycle").schedule(WorkloadSpec(family="cycle", n=3), system)
    system.run_to_quiescence()
    print("basic model, 3-cycle deadlock")
    for declaration in system.declarations:
        print(
            f"  t={declaration.time:.3f}  vertex {declaration.vertex} declared "
            f"deadlock (tag {declaration.tag}, sound={declaration.on_black_cycle})"
        )
    system.assert_soundness()
    system.assert_completeness()
    print("  soundness + completeness verified against the oracle")
    return 0


BASIC_VARIANT = register(
    DetectorVariant(
        name="basic",
        title="Chandy-Misra probe computation (sections 2-4)",
        capabilities=VariantCapabilities(
            model="basic",
            kind="protocol",
            oracle_criterion="declarer is on an all-black cycle (QRP2)",
            scenarios=(
                "cycle",
                "chain-waves",
                "dense",
                "cycle-with-tails",
                "random",
                "er",
                "ba",
                "bursty",
                "baseline-random",
                "baseline-ping-pong",
            ),
            taxonomy=MessageTaxonomy(
                initiated=categories.BASIC_COMPUTATION_INITIATED,
                probe_sent=categories.BASIC_PROBE_SENT,
                probe_received=categories.BASIC_PROBE_RECEIVED,
                declared=categories.BASIC_DEADLOCK_DECLARED,
                endpoint_keys=("source", "target"),
                edge_keys=("source", "target"),
                declared_by_key="vertex",
            ),
        ),
        build=BasicSystem,
        conformance=_conformance,
        demo=DemoSpec(
            command="quickstart",
            help="3-cycle basic-model demo",
            run=_demo,
        ),
    )
)
