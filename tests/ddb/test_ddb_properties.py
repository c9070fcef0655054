"""DDB-level property tests: the theorems over random configurations.

The DDB counterpart of tests/basic/test_properties.py: hypothesis draws
system shapes (sites, resources, contention profiles, delay models, seeds)
and the paper's guarantees must hold on every sampled history.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddb.initiation import (
    DdbDelayedInitiation,
    DdbImmediateInitiation,
    DdbPeriodicInitiation,
)
from repro.ddb.resolution import (
    AbortAboutTransaction,
    AbortLowestTransactionInCycle,
    NoResolution,
)
from repro.ddb.system import DdbSystem
from repro.sim.network import ExponentialDelay, FixedDelay, UniformDelay
from repro.workloads.transactions import TransactionWorkload, WorkloadParams

DELAYS = st.sampled_from(
    [FixedDelay(1.0), UniformDelay(0.3, 2.0), ExponentialDelay(mean=1.0)]
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_sites=st.integers(min_value=2, max_value=4),
    n_resources=st.integers(min_value=3, max_value=8),
    delay_model=DELAYS,
    read_ratio=st.floats(min_value=0.0, max_value=0.6),
    hotspot=st.floats(min_value=0.0, max_value=0.8),
)
@settings(max_examples=25, deadline=None)
def test_detection_only_soundness_and_completeness(
    seed: int,
    n_sites: int,
    n_resources: int,
    delay_model,
    read_ratio: float,
    hotspot: float,
) -> None:
    system = DdbSystem(
        n_sites=n_sites,
        resources=n_resources,
        seed=seed,
        delay_model=delay_model,
        resolution=NoResolution(),
        strict=False,
    )
    workload = TransactionWorkload(
        system,
        WorkloadParams(
            n_transactions=8,
            remote_probability=0.9,
            read_ratio=read_ratio,
            hotspot_probability=hotspot,
            hotspot_size=2,
            mean_think=0.8,
            arrival_window=8.0,
            restart_aborted=False,
        ),
    )
    workload.start()
    system.run_to_quiescence(max_events=1_000_000)
    assert system.soundness_violations == []
    report = system.completeness_report()
    assert report.complete, report.undetected_components


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    resolution=st.sampled_from([AbortAboutTransaction, AbortLowestTransactionInCycle]),
)
@settings(max_examples=15, deadline=None)
def test_resolution_liveness(seed: int, resolution) -> None:
    system = DdbSystem(
        n_sites=3,
        resources=6,
        seed=seed,
        resolution=resolution(),
        strict=False,
    )
    workload = TransactionWorkload(
        system,
        WorkloadParams(
            n_transactions=8,
            remote_probability=1.0,
            read_ratio=0.0,
            hotspot_probability=0.5,
            hotspot_size=2,
            mean_think=0.8,
            arrival_window=6.0,
            restart_horizon=5000.0,
        ),
    )
    workload.start()
    system.run_to_quiescence(max_events=2_000_000)
    assert system.soundness_violations == []
    system.assert_no_deadlock_remains()
    assert workload.stats.commits == 8


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    initiation=st.sampled_from(
        [
            lambda: DdbImmediateInitiation(),
            lambda: DdbDelayedInitiation(timeout=3.0),
            lambda: DdbPeriodicInitiation(period=3.0, optimized=True, horizon=300.0),
            lambda: DdbPeriodicInitiation(period=3.0, optimized=False, horizon=300.0),
        ]
    ),
)
@settings(max_examples=15, deadline=None)
def test_every_initiation_policy_is_sound_and_complete(seed: int, initiation) -> None:
    system = DdbSystem(
        n_sites=3,
        resources=6,
        seed=seed,
        initiation=initiation(),
        resolution=NoResolution(),
        strict=False,
    )
    workload = TransactionWorkload(
        system,
        WorkloadParams(
            n_transactions=8,
            remote_probability=1.0,
            read_ratio=0.2,
            hotspot_probability=0.5,
            hotspot_size=2,
            mean_think=0.8,
            arrival_window=6.0,
            restart_aborted=False,
        ),
    )
    workload.start()
    system.run_to_quiescence(max_events=1_000_000)
    assert system.soundness_violations == []
    report = system.completeness_report()
    assert report.complete, report.undetected_components


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_ddb_wfgd_exactness_on_random_deadlocks(seed: int) -> None:
    system = DdbSystem(
        n_sites=3,
        resources=6,
        seed=seed,
        resolution=NoResolution(),
        strict=False,
        wfgd_on_declare=True,
    )
    workload = TransactionWorkload(
        system,
        WorkloadParams(
            n_transactions=8,
            remote_probability=1.0,
            read_ratio=0.0,
            hotspot_probability=0.5,
            hotspot_size=2,
            mean_think=0.8,
            arrival_window=6.0,
            restart_aborted=False,
        ),
    )
    workload.start()
    system.run_to_quiescence(max_events=1_000_000)
    assert system.soundness_violations == []
    for process in system.oracle.processes_on_dark_cycles():
        controller = system.controllers[process.site]
        expected = system.oracle.permanent_black_edges_from(process)
        assert controller.wfgd.paths_for(process) == expected
