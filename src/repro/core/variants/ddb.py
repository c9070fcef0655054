"""Registration of the ``ddb`` variant: the section 6 controller model.

The Menasce-Muntz distributed-database model runs one controller per
site; probes travel controller-to-controller about ``(transaction, site)``
processes.  The system wrapper is :class:`~repro.ddb.system.DdbSystem`.
The conformance scenarios run detection-only (``NoResolution``), so the
quiescence-time completeness check over the dark process graph applies.
"""

from __future__ import annotations

from repro._ids import ResourceId, SiteId, TransactionId
from repro.core.conformance import ConformanceOutcome, conformance_workload
from repro.core.registry import (
    DemoSpec,
    DetectorVariant,
    MessageTaxonomy,
    VariantCapabilities,
    register,
)
from repro.ddb.system import DdbSystem
from repro.sim import categories
from repro.workloads.spec import get_family


def _conformance(
    scenario: str, seed: int, transport: object | None = None
) -> ConformanceOutcome:
    """Run one standard scenario.

    The ``ddb-cross`` / ``ddb-disjoint`` workload families (resolved via
    the RPX004 workload seam) build the two-site system and issue the
    transactions; this module only describes the detector.
    """
    spec = conformance_workload("ddb", scenario).with_seed(seed)
    family = get_family(spec.family)
    assert family.build is not None  # both conformance families carry one
    system: DdbSystem = family.build(spec, transport=transport, strict=False)
    family.schedule(spec, system)
    system.run_to_quiescence(max_events=100_000)
    complete, undetected = system.completeness_report()
    return ConformanceOutcome(
        variant="ddb",
        scenario=scenario,
        declarations=len(system.declarations),
        soundness_violations=len(system.soundness_violations),
        complete=complete,
        undetected_components=len(undetected),
        first_declaration_at=(
            system.declarations[0].time if system.declarations else None
        ),
    )


def _demo() -> int:
    from repro.ddb.locks import LockMode
    from repro.ddb.resolution import AbortAboutTransaction
    from repro.ddb.transaction import Think, TransactionSpec, acquire

    resources = {ResourceId("r0"): SiteId(0), ResourceId("r1"): SiteId(1)}
    system = DdbSystem(n_sites=2, resources=resources, resolution=AbortAboutTransaction())

    def restart(execution, aborted):
        if aborted:
            system.restart(execution.spec.tid, delay=3.0 + 4.0 * int(execution.spec.tid))

    system.finished_callback = restart
    X = LockMode.EXCLUSIVE
    system.begin(
        TransactionSpec(
            tid=TransactionId(1),
            home=SiteId(0),
            operations=(acquire(("r0", X)), Think(1.0), acquire(("r1", X))),
        ),
        at=0.0,
    )
    system.begin(
        TransactionSpec(
            tid=TransactionId(2),
            home=SiteId(1),
            operations=(acquire(("r1", X)), Think(1.0), acquire(("r0", X))),
        ),
        at=0.1,
    )
    system.run_to_quiescence(max_events=100_000)
    print("DDB model, cross-site deadlock with victim resolution")
    for declaration in system.declarations:
        print(
            f"  t={declaration.time:.3f}  C{declaration.site} declared "
            f"{declaration.process} deadlocked"
        )
    for tid, record in sorted(system.transactions.items()):
        print(f"  T{tid}: commits={record.commits} aborts={record.aborts}")
    system.assert_no_deadlock_remains()
    print("  no deadlock remains; all transactions committed")
    return 0


DDB_VARIANT = register(
    DetectorVariant(
        name="ddb",
        title="Menasce-Muntz controller model (section 6)",
        capabilities=VariantCapabilities(
            model="ddb",
            kind="protocol",
            oracle_criterion=(
                "declared process is on an all-black cycle "
                "(stale-abort declarations excepted)"
            ),
            scenarios=("ddb-ring", "ddb-hot"),
            taxonomy=MessageTaxonomy(
                initiated=categories.DDB_COMPUTATION_INITIATED,
                probe_sent=categories.DDB_PROBE_SENT,
                probe_received=categories.DDB_PROBE_RECEIVED,
                declared=categories.DDB_DEADLOCK_DECLARED,
                endpoint_keys=("site", "destination"),
                edge_keys=("edge",),
                declared_by_key="process",
            ),
        ),
        build=DdbSystem,
        conformance=_conformance,
        demo=DemoSpec(
            command="ddb-demo",
            help="cross-site DDB deadlock demo",
            run=_demo,
        ),
    )
)
