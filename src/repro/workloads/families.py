"""Built-in workload family registrations.

Loaded lazily by :func:`repro.workloads.spec.ensure_builtin_families`;
importing this module registers every shipped family.  Three groups:

* canned basic-model patterns (cycle, chain, near-cycle, chain-waves,
  dense, cycle-with-tails, figure-eight, ping-pong) -- the paper's own
  §2-4 shapes, previously re-implemented inline by each runner;
* randomized drivers (``random`` on the basic model, ``ddb-mix`` /
  ``ddb-hot`` on the DDB model) wrapping the existing workload classes;
* graph ensembles (``er``, ``ba``) from :mod:`repro.workloads.ensembles`;
* the ``bursty`` storms-then-quiet workload behind the E10 scheduling
  study (static-T curves vs the adaptive controller).

Registration order is part of the contract:
:func:`~repro.workloads.spec.default_random_family` picks the *first*
randomized family per model, so ``random`` (basic) and ``ddb-mix`` (DDB)
must register before their siblings.

Schedule bodies for the families the sweep grids already run reproduce
the historical builders exactly -- same request times, same RNG stream
names, same parameter defaults -- so the e1-e8 shape hashes are
byte-identical across the refactor (guarded by ``repro bench check``).
"""

from __future__ import annotations

from typing import Any

from repro._ids import ResourceId, SiteId, TransactionId
from repro.basic.system import BasicSystem
from repro.ddb.locks import LockMode
from repro.ddb.resolution import AbortLowestTransactionInCycle, NoResolution
from repro.ddb.system import DdbSystem, uniform_resources
from repro.ddb.transaction import Think, TransactionSpec, acquire
from repro.errors import ConfigurationError
from repro.ormodel.system import OrSystem
from repro.workloads import ensembles, scenarios
from repro.workloads.basic_random import RandomRequestWorkload
from repro.workloads.spec import (
    WorkloadFamily,
    WorkloadSpec,
    make_params,
    register_family,
)
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

# ----------------------------------------------------------------------
# canned basic-model patterns


def _schedule_cycle(spec: WorkloadSpec, system: BasicSystem) -> None:
    scenarios.schedule_cycle(system, list(range(spec.n)))


def _schedule_chain(spec: WorkloadSpec, system: BasicSystem) -> None:
    scenarios.schedule_chain(system, list(range(spec.n)))


def _schedule_near_cycle(spec: WorkloadSpec, system: BasicSystem) -> None:
    scenarios.schedule_near_cycle(system, list(range(spec.n)))


def _schedule_chain_waves(spec: WorkloadSpec, system: BasicSystem) -> None:
    period = spec.param("period", 15.0)
    for wave in range(int(spec.param("waves", 1))):
        scenarios.schedule_chain(
            system, list(range(spec.n)), start=wave * period, gap=0.2
        )


def _schedule_dense(spec: WorkloadSpec, system: BasicSystem) -> None:
    fan_out = int(spec.param("fan_out"))
    for i in range(spec.n):
        targets = sorted({(i + d) % spec.n for d in range(1, fan_out + 1)} - {i})
        system.schedule_request(0.1 * i, i, targets)


def _schedule_tails(spec: WorkloadSpec, system: BasicSystem) -> None:
    cycle_size = int(spec.param("cycle"))
    offset = cycle_size
    tail_ids: list[list[int]] = []
    for length in (int(v) for v in spec.param_list("tail")):
        tail_ids.append(list(range(offset, offset + length)))
        offset += length
    scenarios.schedule_cycle_with_tails(system, list(range(cycle_size)), tail_ids)


def _schedule_figure_eight(spec: WorkloadSpec, system: BasicSystem) -> None:
    if spec.n < 3:
        raise ConfigurationError(
            f"a figure-eight needs n >= 3 (shared vertex + two loops), got {spec.n}"
        )
    half = (spec.n - 1) // 2
    left = list(range(1, 1 + half))
    right = list(range(1 + half, spec.n))
    scenarios.schedule_figure_eight(system, 0, left, right)


def _schedule_ping_pong(spec: WorkloadSpec, system: BasicSystem) -> None:
    pairs = [(2 * i, 2 * i + 1) for i in range(spec.n // 2)]
    scenarios.schedule_ping_pong(
        system,
        pairs,
        repetitions=int(spec.param("repetitions", 8)),
        period=spec.param("period", 6.0),
        offset=spec.param("offset", 2.6),
    )


# ----------------------------------------------------------------------
# randomized basic-model driver


def _schedule_random(spec: WorkloadSpec, system: BasicSystem) -> RandomRequestWorkload:
    workload = RandomRequestWorkload(
        system,
        mean_think=spec.param("mean_think", 2.0),
        max_targets=int(spec.param("max_targets", 2)),
        duration=spec.duration,
        request_probability=spec.param("request_probability", 0.8),
    )
    workload.start()
    return workload


def _collect_random(
    spec: WorkloadSpec, system: BasicSystem, handle: Any
) -> dict[str, Any]:
    return {
        "avoided": system.counts["basic.computations.avoided"],
    }


# ----------------------------------------------------------------------
# graph ensembles (basic + OR models)
#
# Both system wrappers expose the same ``schedule_request(time, source,
# targets)`` surface; the per-vertex batch becomes an AND-request on the
# basic model and an any-of dependent set on the OR model.  Each vertex
# requests at most once (one batch per requester at its own instant), so
# the OR model's "may not request while blocked" rule is never tripped.


def _schedule_er(
    spec: WorkloadSpec, system: BasicSystem | OrSystem
) -> list[ensembles.Edge]:
    rng = ensembles.spec_rng(spec.seed, "er")
    edges = ensembles.erdos_renyi_edges(spec.n, spec.param("p"), rng)
    for vertex, targets in ensembles.requests_from_edges(spec.n, edges):
        system.schedule_request(0.1 * vertex, vertex, targets)
    return edges


def _schedule_ba(
    spec: WorkloadSpec, system: BasicSystem | OrSystem
) -> list[ensembles.Edge]:
    rng = ensembles.spec_rng(spec.seed, "ba")
    edges = ensembles.barabasi_albert_edges(
        spec.n, int(spec.param("m", 2)), rng
    )
    for vertex, targets in ensembles.requests_from_edges(spec.n, edges):
        system.schedule_request(0.1 * vertex, vertex, targets)
    return edges


def _collect_ensemble(
    spec: WorkloadSpec, system: BasicSystem | OrSystem, handle: Any
) -> dict[str, Any]:
    edges = handle if isinstance(handle, list) else []
    requesters = {requester for requester, _ in edges}
    return {"graph_edges": len(edges), "graph_requesters": len(requesters)}


# ----------------------------------------------------------------------
# bursty load (the E10 scheduling study)


def _bursty_layout(spec: WorkloadSpec) -> tuple[list[int], list[int], list[int]]:
    """Partition the vertex range into (storm pool, servers, planted cycle)."""
    if spec.n < 9:
        raise ConfigurationError(
            f"the bursty family needs n >= 9 (a storm pool of at least "
            f"four, two servers, and the planted 3-cycle), got {spec.n}"
        )
    cycle = list(range(spec.n - 3, spec.n))
    servers = [spec.n - 5, spec.n - 4]
    pool = list(range(spec.n - 5))
    return pool, servers, cycle


def _validate_bursty(spec: WorkloadSpec) -> None:
    _bursty_layout(spec)


def _schedule_bursty(spec: WorkloadSpec, system: BasicSystem) -> dict[str, float]:
    """Contention storms, a quiet tail, then one planted deadlock.

    Three phases on disjoint vertex roles:

    * **Quiet lead-in and tail**: sparse single requests against two
      always-active server vertices -- short ~3-unit waits bracketing
      the storms.  The lead-in gives an adaptive policy its baseline
      lifetime estimate before the first burst; the tail pulls the
      estimate back down after the storms.
    * **Storms**: every `period`, the storm pool is shuffled (seeded)
      and partitioned into waiting chains of `chain_len`; every chain
      drains on its own well before the next burst, so the long waits
      are churn, never deadlock.
    * **Planted cycle**: the standard 3-cycle on vertices no other phase
      touches, closing at the returned ``cycle_closed_at`` so E10 can
      measure detection latency from the instant the deadlock exists.
    """
    pool, servers, cycle = _bursty_layout(spec)
    rng = ensembles.spec_rng(spec.seed, "bursty")
    bursts = int(spec.param("bursts", 6))
    period = spec.param("period", 40.0)
    chain_len = max(2, int(spec.param("chain_len", 6)))
    lead = int(spec.param("lead", 2))
    quiet = int(spec.param("quiet", 16))
    quiet_gap = spec.param("quiet_gap", 6.0)

    def trickle(start: float, count: int, offset: int) -> float:
        for q in range(count):
            client = pool[(offset + q) % len(pool)]
            server = servers[(offset + q) % len(servers)]
            system.schedule_request(start + q * quiet_gap, client, [server])
        return start + count * quiet_gap

    storms_start = trickle(0.0, lead, 0)
    for burst in range(bursts):
        order = list(pool)
        rng.shuffle(order)
        start = storms_start + burst * period
        for i in range(0, len(order) - chain_len + 1, chain_len):
            scenarios.schedule_chain(
                system, order[i : i + chain_len], start=start, gap=0.2
            )
    cycle_start = trickle(storms_start + bursts * period, quiet, lead)
    scenarios.schedule_cycle(system, cycle, start=cycle_start, gap=0.5)
    return {"cycle_closed_at": cycle_start + (len(cycle) - 1) * 0.5}


def _collect_bursty(
    spec: WorkloadSpec, system: BasicSystem, handle: Any
) -> dict[str, Any]:
    return {
        "cycle_closed_at": handle["cycle_closed_at"],
        "avoided": system.counts["basic.computations.avoided"],
    }


# ----------------------------------------------------------------------
# DDB-model families


def _ddb_resolution(spec: WorkloadSpec) -> NoResolution | AbortLowestTransactionInCycle:
    return (
        AbortLowestTransactionInCycle()
        if spec.param("resolve", 0.0)
        else NoResolution()
    )


def _build_ddb(
    spec: WorkloadSpec,
    *,
    transport: Any | None = None,
    strict: bool = True,
    delay_model: Any | None = None,
    initiation: Any | None = None,
) -> DdbSystem:
    if spec.n < 2:
        raise ConfigurationError(
            f"a DDB workload needs at least two sites, got {spec.n}"
        )
    n_resources = int(spec.param("resources", 3.0 * spec.n))
    return DdbSystem(
        n_sites=spec.n,
        resources=uniform_resources(n_resources, spec.n),
        seed=spec.seed,
        delay_model=delay_model,
        resolution=_ddb_resolution(spec),
        strict=strict,
        transport=transport,
        **({"initiation": initiation} if initiation is not None else {}),
    )


def _ddb_workload_params(spec: WorkloadSpec, hot_default: float) -> WorkloadParams:
    n_resources = int(spec.param("resources", 3.0 * spec.n))
    load = spec.param("load", 1.0)
    horizon = spec.duration if spec.duration else float("inf")
    return WorkloadParams(
        n_transactions=max(1, round(load * n_resources)),
        min_local=int(spec.param("min_local", 1)),
        max_local=int(spec.param("max_local", 2)),
        remote_probability=spec.param("remote", 0.9),
        read_ratio=spec.param("read_ratio", 0.2),
        hotspot_probability=spec.param("hot", hot_default),
        hotspot_size=int(spec.param("hot_size", 2)),
        zipf_s=spec.param("zipf_s", 0.0),
        mean_think=spec.param("think", 1.0),
        arrival_window=spec.param("window", 20.0),
        restart_aborted=bool(spec.param("resolve", 0.0)),
        restart_horizon=horizon,
    )


def _schedule_ddb_mix(spec: WorkloadSpec, system: DdbSystem) -> TransactionWorkload:
    workload = TransactionWorkload(system, _ddb_workload_params(spec, hot_default=0.0))
    workload.start()
    return workload


def _schedule_ddb_hot(spec: WorkloadSpec, system: DdbSystem) -> TransactionWorkload:
    workload = TransactionWorkload(system, _ddb_workload_params(spec, hot_default=0.8))
    workload.start()
    return workload


def _collect_ddb(spec: WorkloadSpec, system: DdbSystem, handle: Any) -> dict[str, Any]:
    stats = handle.stats
    return {"commits": stats.commits, "aborts": stats.aborts}


def _two_site_operations(deadlock: bool) -> tuple[tuple[Any, ...], ...]:
    X = LockMode.EXCLUSIVE
    if deadlock:
        # T1 holds r0 and wants r1; T2 holds r1 and wants r0.
        return (
            (acquire(("r0", X)), Think(1.0), acquire(("r1", X))),
            (acquire(("r1", X)), Think(1.0), acquire(("r0", X))),
        )
    # Disjoint lock sets: both transactions commit without waiting.
    return (
        (acquire(("r0", X)), Think(1.0)),
        (acquire(("r1", X)), Think(1.0)),
    )


def _build_two_site(
    spec: WorkloadSpec,
    *,
    transport: Any | None = None,
    strict: bool = True,
    delay_model: Any | None = None,
    initiation: Any | None = None,
) -> DdbSystem:
    resources = {ResourceId("r0"): SiteId(0), ResourceId("r1"): SiteId(1)}
    return DdbSystem(
        n_sites=2,
        resources=resources,
        seed=spec.seed,
        delay_model=delay_model,
        strict=strict,
        transport=transport,
        **({"initiation": initiation} if initiation is not None else {}),
    )


def _schedule_two_site(deadlock: bool, system: DdbSystem) -> None:
    for index, steps in enumerate(_two_site_operations(deadlock)):
        system.begin(
            TransactionSpec(
                tid=TransactionId(index + 1),
                home=SiteId(index),
                operations=steps,
            ),
            at=0.1 * index,
        )


def _schedule_ddb_cross(spec: WorkloadSpec, system: DdbSystem) -> None:
    _schedule_two_site(True, system)


def _schedule_ddb_disjoint(spec: WorkloadSpec, system: DdbSystem) -> None:
    _schedule_two_site(False, system)


# ----------------------------------------------------------------------
# OR-model families


def _schedule_or_knot(spec: WorkloadSpec, system: OrSystem) -> None:
    # The §7 knot: p0 waits any{p1, p2}, both wait any{p0}.
    system.schedule_request(0.0, 1, [0])
    system.schedule_request(0.3, 2, [0])
    system.schedule_request(0.6, 0, [1, 2])


def _schedule_or_clean(spec: WorkloadSpec, system: OrSystem) -> None:
    # One OR-request against an active vertex: granted, no deadlock.
    system.schedule_request(0.0, 1, [0])


# ----------------------------------------------------------------------
# registrations (order is observable -- see the module docstring)

CYCLE = register_family(
    WorkloadFamily(
        name="cycle",
        title="k-cycle (the paper's standard deadlock)",
        description=(
            "Vertex i requests vertex (i+1) mod k at 0.5*i; the last "
            "request closes the cycle and the whole ring is deadlocked."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=False,
        source="paper §2-4",
        schedule=_schedule_cycle,
        example=WorkloadSpec(family="cycle", n=4),
    )
)

CHAIN = register_family(
    WorkloadFamily(
        name="chain",
        title="straight waiting chain (drains clean)",
        description=(
            "v0 -> v1 -> ... -> vk with no closing edge; the tail vertex "
            "stays active so replies drain the whole chain."
        ),
        models=("basic",),
        deadlock_capable=False,
        randomized=False,
        source="paper §2-4",
        schedule=_schedule_chain,
        example=WorkloadSpec(family="chain", n=4),
    )
)

NEAR_CYCLE = register_family(
    WorkloadFamily(
        name="near-cycle",
        title="cycle with the closing edge withheld",
        description=(
            "The k-cycle request pattern minus its final closing request: "
            "the last vertex stays active, so any declaration is a "
            "soundness violation.  Distinct from `chain` by intent -- it "
            "is the adversarial near-miss of `cycle`, sharing its "
            "timing, and requires k >= 2 like a cycle does."
        ),
        models=("basic",),
        deadlock_capable=False,
        randomized=False,
        source="paper §3 (QRP2 near-miss)",
        schedule=_schedule_near_cycle,
        example=WorkloadSpec(family="near-cycle", n=4),
    )
)

CHAIN_WAVES = register_family(
    WorkloadFamily(
        name="chain-waves",
        title="repeated chain waves (churn without deadlock)",
        description=(
            "`waves` copies of the n-chain issued every `period` time "
            "units (gap 0.2): continuous edge churn that must never "
            "produce a declaration."
        ),
        models=("basic",),
        deadlock_capable=False,
        randomized=False,
        source="paper §2-4",
        schedule=_schedule_chain_waves,
        example=WorkloadSpec(
            family="chain-waves", n=6, params=make_params(waves=2, period=15.0)
        ),
    )
)

DENSE = register_family(
    WorkloadFamily(
        name="dense",
        title="dense circulant graph (max probe amplification)",
        description=(
            "Every vertex AND-requests its next `fan_out` successors "
            "around the ring at 0.1*i: the densest wait graph the §4 "
            "bound analysis covers."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=False,
        source="paper §4 (cost bounds)",
        schedule=_schedule_dense,
        example=WorkloadSpec(family="dense", n=8, params=make_params(fan_out=3)),
    )
)

CYCLE_WITH_TAILS = register_family(
    WorkloadFamily(
        name="cycle-with-tails",
        title="cycle plus chains waiting into it (WFGD workload)",
        description=(
            "A `cycle`-sized ring plus `tail` chains attached to its "
            "first vertex, issued leaf-last so every tail edge is black "
            "before detection; tail vertices deadlock without being on "
            "the cycle (the §5 WFGD computation informs them)."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=False,
        source="paper §5 (WFGD)",
        schedule=_schedule_tails,
        example=WorkloadSpec(
            family="cycle-with-tails",
            n=8,
            params=(("cycle", 3.0), ("tail", 2.0), ("tail", 3.0)),
        ),
    )
)

FIGURE_EIGHT = register_family(
    WorkloadFamily(
        name="figure-eight",
        title="two cycles sharing one vertex",
        description=(
            "Vertex 0 AND-requests the entries of two loops that both "
            "return to it: two overlapping deadlocked cycles through one "
            "shared vertex."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=False,
        source="paper §2-4",
        schedule=_schedule_figure_eight,
        example=WorkloadSpec(family="figure-eight", n=5),
    )
)

PING_PONG = register_family(
    WorkloadFamily(
        name="ping-pong",
        title="alternating opposite waits (phantom-deadlock bait)",
        description=(
            "Paired vertices alternate opposite waits timed so the two "
            "edges never coexist: no deadlock ever exists, but detectors "
            "that mix observations from different instants see a phantom "
            "cycle (experiment E8's discriminator)."
        ),
        models=("basic",),
        deadlock_capable=False,
        randomized=False,
        source="Gray et al. phantom-deadlock critique (PAPERS.md)",
        schedule=_schedule_ping_pong,
        example=WorkloadSpec(family="ping-pong", n=4),
    )
)

RANDOM = register_family(
    WorkloadFamily(
        name="random",
        title="random AND-request churn (basic model)",
        description=(
            "Every vertex alternates exponential think time with an "
            "AND-request to a random vertex subset until `duration`; "
            "deadlocks form at random and everything else drains."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=True,
        source="paper §4.3 (delayed-T regime)",
        schedule=_schedule_random,
        example=WorkloadSpec(family="random", n=10, duration=60.0),
        outcome_fields=("avoided",),
        collect=_collect_random,
    )
)

ERDOS_RENYI = register_family(
    WorkloadFamily(
        name="er",
        title="Erdős–Rényi wait-graph ensemble G(n, p)",
        description=(
            "Each ordered vertex pair waits independently with "
            "probability `p`; expected out-degree p*(n-1) is the load "
            "factor, and deadlock probability rises sharply past load 1. "
            "On the OR model each batch is an any-of dependent set."
        ),
        models=("basic", "ormodel"),
        deadlock_capable=True,
        randomized=True,
        source="Barbosa, combinatorics of resource sharing (PAPERS.md)",
        schedule=_schedule_er,
        example=WorkloadSpec(family="er", n=16, params=make_params(p=0.1)),
        outcome_fields=("graph_edges", "graph_requesters"),
        collect=_collect_ensemble,
    )
)

BARABASI_ALBERT = register_family(
    WorkloadFamily(
        name="ba",
        title="Barabási–Albert scale-free wait-graph ensemble",
        description=(
            "Preferential-attachment growth with `m` edges per vertex "
            "and fair-coin orientation: hub vertices concentrate waits "
            "the way hot resources do. On the OR model each batch is an "
            "any-of dependent set."
        ),
        models=("basic", "ormodel"),
        deadlock_capable=True,
        randomized=True,
        source="Oliveira & Barbosa, probabilistic deadlock prevention (PAPERS.md)",
        schedule=_schedule_ba,
        example=WorkloadSpec(family="ba", n=16, params=make_params(m=2)),
        outcome_fields=("graph_edges", "graph_requesters"),
        collect=_collect_ensemble,
    )
)

BURSTY = register_family(
    WorkloadFamily(
        name="bursty",
        title="contention storms + quiet tail + one planted deadlock",
        description=(
            "Periodic bursts of seeded waiting chains that always drain, "
            "a quiet stretch of short server waits, then a planted "
            "3-cycle on untouched vertices: the E10 workload where "
            "static-T initiation pays for the storms on every burst "
            "while the adaptive controller learns them once."
        ),
        models=("basic",),
        deadlock_capable=True,
        randomized=True,
        source="Ling, Chen & Chiang detection scheduling (PAPERS.md)",
        schedule=_schedule_bursty,
        example=WorkloadSpec(family="bursty", n=17),
        outcome_fields=("cycle_closed_at", "avoided"),
        collect=_collect_bursty,
        validate=_validate_bursty,
    )
)

DDB_CROSS = register_family(
    WorkloadFamily(
        name="ddb-cross",
        title="cross-site exclusive-lock deadlock (DDB)",
        description=(
            "Two transactions on two sites acquire {r0, r1} in opposite "
            "orders: the §6 controller model's standard deadlock."
        ),
        models=("ddb",),
        deadlock_capable=True,
        randomized=False,
        source="paper §6 (Menasce-Muntz controllers)",
        schedule=_schedule_ddb_cross,
        example=WorkloadSpec(family="ddb-cross", n=2),
        build=_build_two_site,
    )
)

DDB_DISJOINT = register_family(
    WorkloadFamily(
        name="ddb-disjoint",
        title="disjoint lock sets (DDB, drains clean)",
        description=(
            "Two transactions lock disjoint resources and commit without "
            "ever waiting: the DDB clean-run scenario."
        ),
        models=("ddb",),
        deadlock_capable=False,
        randomized=False,
        source="paper §6 (Menasce-Muntz controllers)",
        schedule=_schedule_ddb_disjoint,
        example=WorkloadSpec(family="ddb-disjoint", n=2),
        build=_build_two_site,
    )
)

DDB_MIX = register_family(
    WorkloadFamily(
        name="ddb-mix",
        title="random single-remote-hop transaction mix (DDB)",
        description=(
            "`load` transactions per resource acquire home-site locks "
            "then one optional remote hop (the §6 representable shape); "
            "detection-only by default (`resolve=1` turns on victim "
            "abort + restart)."
        ),
        models=("ddb",),
        deadlock_capable=True,
        randomized=True,
        source="paper §6 + Menasce-Muntz line (PAPERS.md)",
        schedule=_schedule_ddb_mix,
        example=WorkloadSpec(
            family="ddb-mix", n=3, params=make_params(load=1.0)
        ),
        build=_build_ddb,
        outcome_fields=("commits", "aborts"),
        collect=_collect_ddb,
    )
)

DDB_HOT = register_family(
    WorkloadFamily(
        name="ddb-hot",
        title="hot-resource transaction mix with victim recovery (DDB)",
        description=(
            "The `ddb-mix` shape with most remote hops landing on a "
            "small hotspot and victim resolution on by default: sustained "
            "contention churn exercising abort, backoff, and restart. "
            "`zipf_s` > 0 skews the non-hotspot remote picks by Zipf "
            "popularity rank (seed-deterministic; 0 keeps them uniform)."
        ),
        models=("ddb",),
        deadlock_capable=True,
        randomized=True,
        source="Oliveira & Barbosa, probabilistic deadlock prevention (PAPERS.md)",
        schedule=_schedule_ddb_hot,
        example=WorkloadSpec(
            family="ddb-hot",
            n=3,
            duration=200.0,
            params=make_params(load=1.5, resolve=1.0),
        ),
        build=_build_ddb,
        outcome_fields=("commits", "aborts"),
        collect=_collect_ddb,
    )
)

OR_KNOT = register_family(
    WorkloadFamily(
        name="or-knot",
        title="OR-model knot (every path blocked)",
        description=(
            "p0 waits any{p1, p2} while both wait any{p0}: a knot, so "
            "the OR model's deadlock criterion holds for all three."
        ),
        models=("ormodel",),
        deadlock_capable=True,
        randomized=False,
        source="paper §7 (communication model)",
        schedule=_schedule_or_knot,
        example=WorkloadSpec(family="or-knot", n=3),
    )
)

OR_CLEAN = register_family(
    WorkloadFamily(
        name="or-clean",
        title="single OR-request against an active vertex",
        description=(
            "One OR-request that is granted immediately: the OR model's "
            "clean-run scenario."
        ),
        models=("ormodel",),
        deadlock_capable=False,
        randomized=False,
        source="paper §7 (communication model)",
        schedule=_schedule_or_clean,
        example=WorkloadSpec(family="or-clean", n=3),
    )
)
