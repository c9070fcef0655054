"""Execute sweep cells, serially or across worker processes.

Each cell builds its *own* system in its *own* simulator (seeded from the
cell), runs it to quiescence, and reduces the run to a small dict of
deterministic, virtual-time-derived measurements.  Because a cell's result
is a pure function of the cell, the fan-out strategy -- inline loop or
``ProcessPoolExecutor`` -- cannot affect the merged document.

Failures are data, not crashes: any exception raised while running a cell
is caught *inside the worker* and returned as a ``status: "error"`` cell,
so one bad configuration never aborts the rest of the sweep.

Wall time is measured here with ``time.perf_counter`` (``repro.sweep`` is
a driver package, outside lint rule RPX002's virtual-time scope) but is
reported separately from the deterministic fields -- see
:mod:`repro.sweep.merge`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Any

from repro._ids import VertexId
from repro.analysis.stats import mean
from repro.basic.initiation import DelayedInitiation, ImmediateInitiation, ManualInitiation
from repro.core.registry import get_variant, overlay_variants
from repro.core.scheduling import parse_policy_spec
from repro.errors import ConfigurationError
from repro.sweep.grid import SweepCell, delay_model_from_spec
from repro.workloads.provision import attach_policy_feedback, build_initiation
from repro.workloads.spec import WorkloadFamily, get_family

if TYPE_CHECKING:
    from repro.basic.system import BasicSystem
    from repro.ddb.system import DdbSystem

#: Event budget for every cell; generous for all shipped grids.
MAX_EVENTS = 2_000_000

CellResult = dict[str, Any]


def _initiation(cell: SweepCell) -> Any:
    if cell.policy is not None:
        if cell.timeout_t is not None:
            raise ConfigurationError(
                f"cell {cell.cell_id} sets both timeout_t and policy; "
                "timeout_t is the legacy spelling of policy='delayed/T=...'"
            )
        return build_initiation(parse_policy_spec(cell.policy), "basic")
    if cell.timeout_t is None:
        return ImmediateInitiation()
    return DelayedInitiation(cell.timeout_t)


def _basic_system(cell: SweepCell, **overrides: Any) -> BasicSystem:
    kwargs: dict[str, Any] = {
        "n_vertices": cell.n,
        "seed": cell.seed,
        "delay_model": delay_model_from_spec(cell.delay),
        "service_delay": cell.param("service_delay", 1.0),
        "initiation": _initiation(cell),
        "strict": not cell.param("lenient", 0.0),
    }
    kwargs.update(overrides)
    system: BasicSystem = get_variant("basic").build(**kwargs)
    return system


def _collect(cell: SweepCell, system: BasicSystem | DdbSystem) -> CellResult:
    """A probe-model cell's result, its section 4 numbers included."""
    latencies = system.detection_latencies
    return {
        "cell_id": cell.cell_id,
        "status": "ok",
        "outcome": "deadlock" if system.declarations else "clean",
        "events": system.simulator.events_executed,
        "quiesced_at": system.simulator.now,
        "declarations": len(system.declarations),
        "unsound": len(system.soundness_violations),
        "probes": system.probes_sent,
        "computations": system.counts[f"{system.model}.computations.initiated"],
        "max_probes_per_computation": max(
            system.probes_per_computation.values(), default=0
        ),
        "detection_latency_mean": mean(latencies) if latencies else None,
        "extra": {},
    }


def _run_basic_family(cell: SweepCell, family: WorkloadFamily) -> CellResult:
    """Any basic-model workload family: schedule via the registry, then
    apply the cell's initiation/WFGD/rounds machinery around the run."""
    wants_wfgd = bool(cell.param("wfgd", 0.0))
    manual = cell.scenario == "dense" or bool(cell.param("rounds", 0.0))
    initiation = ManualInitiation() if manual else _initiation(cell)
    system = _basic_system(cell, wfgd_on_declare=wants_wfgd, initiation=initiation)
    attach_policy_feedback(system, initiation, n_vertices=cell.n)
    spec = cell.workload_spec()
    handle = family.schedule(spec, system)
    system.run_to_quiescence(max_events=MAX_EVENTS)
    rounds = int(cell.param("rounds", 0.0))
    if cell.scenario == "dense":
        system.simulator.schedule(1.0, system.vertex(0).initiate_probe_computation)
        system.run_to_quiescence(max_events=MAX_EVENTS)
    elif rounds:
        for round_index in range(rounds):
            for i in range(cell.n):
                system.simulator.schedule(
                    10.0 * (round_index + 1) + 0.01 * i,
                    system.vertex(i).initiate_probe_computation,
                )
        system.run_to_quiescence(max_events=MAX_EVENTS)
    result = _collect(cell, system)
    if rounds:
        result["extra"]["max_tracked_records"] = max(
            vertex.engine.tracked_computations for vertex in system.vertices.values()
        )
    if wants_wfgd:
        result["extra"].update(_wfgd_extra(system, cell.n))
    if family.collect is not None:
        result["extra"].update(family.collect(spec, system, handle))
    return result


def _wfgd_extra(system: BasicSystem, n: int) -> dict[str, int]:
    blocked = [
        v for v in range(n) if system.oracle.permanent_black_edges_from(VertexId(v))
    ]
    informed = exact = 0
    for v in blocked:
        vertex = system.vertex(v)
        informed += vertex.deadlocked
        expected = system.oracle.permanent_black_edges_from(VertexId(v))
        exact += vertex.wfgd.paths == expected
    return {
        "deadlocked_vertices": len(blocked),
        "informed_vertices": informed,
        "exact_path_sets": exact,
        "wfgd_messages": system.counts["basic.wfgd.sent"],
    }


def _run_ddb_family(cell: SweepCell, family: WorkloadFamily) -> CellResult:
    """A DDB-model workload family (``ddb-mix`` / ``ddb-hot``): the family
    builds its own system (sites + resource catalogue + resolution)."""
    assert family.build is not None  # every registered DDB family has one
    spec = cell.workload_spec()
    initiation = (
        None
        if cell.policy is None
        else build_initiation(parse_policy_spec(cell.policy), "ddb")
    )
    system = family.build(
        spec,
        strict=False,
        delay_model=delay_model_from_spec(cell.delay),
        **({"initiation": initiation} if initiation is not None else {}),
    )
    if initiation is not None:
        attach_policy_feedback(system, initiation)
    handle = family.schedule(spec, system)
    system.run_to_quiescence(max_events=MAX_EVENTS)
    result = _collect_ddb(cell, system)
    if family.collect is not None:
        result["extra"].update(family.collect(spec, system, handle))
    return result


def _run_ddb_ring(cell: SweepCell) -> CellResult:
    from repro.experiments.e7_q_optimization import ring_system

    system = ring_system(
        n_sites=cell.n,
        extra_local=int(cell.param("extra_local")),
        optimized=bool(cell.param("optimized")),
        seed=cell.seed,
    )
    system.run_to_quiescence(max_events=MAX_EVENTS)
    result = _collect_ddb(cell, system)
    result["extra"]["scans"] = system.counts["ddb.scans"]
    return result


def _collect_ddb(cell: SweepCell, system: DdbSystem) -> CellResult:
    result = _collect(cell, system)
    result["extra"]["complete"] = int(system.completeness_report().complete)
    return result


def _run_baseline(cell: SweepCell) -> CellResult:
    from repro.experiments import e8_baselines

    # Detector index 0 is the paper's probe computation; i >= 1 resolves
    # overlay_variants()[i - 1] (the registry's e8 position contract).
    index = int(cell.param("detector"))
    family = cell.scenario.removeprefix("baseline-")
    factory = (
        e8_baselines.random_system if family == "random" else e8_baselines.ping_pong_system
    )
    if index == 0:
        system = factory(cell.seed, True)
        system.run_to_quiescence(max_events=MAX_EVENTS)
        result = _collect(cell, system)
        result["extra"]["detector"] = "cmh"
        result["extra"]["true_detections"] = result["declarations"] - result["unsound"]
        result["extra"]["false_detections"] = result["unsound"]
        return result
    variant = overlay_variants()[index - 1]
    _, settings = e8_baselines.OVERLAY_SETTINGS[variant.name]
    system = factory(cell.seed, False)
    detector = variant.build(system, **settings)
    detector.start()
    system.run_to_quiescence(max_events=MAX_EVENTS)
    result = _collect(cell, system)
    report = detector.report
    result["extra"]["detector"] = variant.name
    result["extra"]["true_detections"] = len(report.true_detections)
    result["extra"]["false_detections"] = len(report.false_detections)
    result["extra"]["detector_messages"] = report.messages
    return result


#: Scenarios that bypass family resolution: they wrap whole experiment
#: procedures (multi-detector overlays, the E7 Q-optimisation ring)
#: rather than a schedulable workload, so the registry has no entry.
_SPECIAL_RUNNERS = {
    "ddb-ring": _run_ddb_ring,
    "baseline-random": _run_baseline,
    "baseline-ping-pong": _run_baseline,
}


def _dispatch(cell: SweepCell) -> CellResult:
    special = _SPECIAL_RUNNERS.get(cell.scenario)
    if special is not None:
        return special(cell)
    # Everything else resolves through the workload registry; an unknown
    # scenario raises ConfigurationError naming the family (error cell).
    family = get_family(cell.scenario)
    model = family.models[0]
    if model == "basic":
        return _run_basic_family(cell, family)
    if model == "ddb":
        return _run_ddb_family(cell, family)
    raise ConfigurationError(
        f"workload family {family.name!r} drives model {model!r}, which has "
        "no sweep runner (basic and ddb families sweep today)"
    )


def run_cell(cell: SweepCell) -> CellResult:
    """Run one cell; never raises -- failures become ``status: "error"``.

    This function is the unit shipped to worker processes, so it must stay
    a module-level callable (picklable) and fully self-describing.
    """
    started = time.perf_counter()
    try:
        result = _dispatch(cell)
    except Exception as error:  # noqa: BLE001 - error cells are the contract
        result = {
            "cell_id": cell.cell_id,
            "status": "error",
            "error": f"{type(error).__name__}: {error}",
        }
    result["wall_seconds"] = time.perf_counter() - started
    return result


def run_sweep(
    cells: tuple[SweepCell, ...] | list[SweepCell], workers: int = 1
) -> list[CellResult]:
    """Run every cell and return results in *completion-independent* order.

    ``workers=1`` runs inline (no subprocesses -- simplest to debug and to
    profile); ``workers>1`` shards cells across a ``ProcessPoolExecutor``
    and collects results as they finish.  Either way the returned list is
    sorted by ``cell_id``, which is what makes the merged document
    independent of scheduling.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        results = [run_cell(cell) for cell in cells]
    else:
        results = []
        with ProcessPoolExecutor(max_workers=workers) as executor:
            pending = {executor.submit(run_cell, cell): cell for cell in cells}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    cell = pending.pop(future)
                    try:
                        results.append(future.result())
                    except Exception as error:  # worker died (e.g. OOM/kill)
                        results.append(
                            {
                                "cell_id": cell.cell_id,
                                "status": "error",
                                "error": f"worker failure: {type(error).__name__}: {error}",
                                "wall_seconds": 0.0,
                            }
                        )
    return sorted(results, key=lambda result: str(result["cell_id"]))
