"""Profiler tests: hook lifecycle, report contents, deterministic sampling.

Wall-clock numbers are asserted only for basic sanity (non-negative,
consistent totals); everything stamped into shared simulator state --
the ``profile.queue.sampled`` trace events, one per queue-depth sample --
must be *identical* across same-seed runs, which is the property that
keeps the RPX002 allowlist for this module sound.
"""

from __future__ import annotations

import pytest

from repro.basic.system import BasicSystem
from repro.errors import SimulationError
from repro.obs.profile import SimulatorProfiler, handler_category, profiling
from repro.sim import categories
from repro.sim.simulator import Simulator

from tests.conftest import make_cycle_system


class TestHandlerCategory:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("deliver Probe to v1", "deliver Probe"),
            ("deliver Request to v0", "deliver Request"),
            ("request", "request"),
            ("service t1 at s0", "service"),
            ("", "<anonymous>"),
        ],
    )
    def test_aggregation_key(self, name: str, expected: str) -> None:
        assert handler_category(name) == expected


class TestLifecycle:
    def test_attach_detach(self) -> None:
        simulator = Simulator(seed=0)
        profiler = SimulatorProfiler(simulator)
        profiler.attach()
        assert simulator.profile_hook is profiler
        profiler.detach()
        assert simulator.profile_hook is None

    def test_double_attach_is_rejected(self) -> None:
        simulator = Simulator(seed=0)
        SimulatorProfiler(simulator).attach()
        with pytest.raises(SimulationError, match="already has a profile hook"):
            SimulatorProfiler(simulator).attach()

    def test_detach_when_not_attached_is_rejected(self) -> None:
        simulator = Simulator(seed=0)
        with pytest.raises(SimulationError, match="not attached"):
            SimulatorProfiler(simulator).detach()

    def test_invalid_sample_interval_is_rejected(self) -> None:
        with pytest.raises(SimulationError, match="sample_every"):
            SimulatorProfiler(Simulator(seed=0), sample_every=0)

    def test_context_manager_detaches_on_exit(self) -> None:
        system = make_cycle_system(3)
        with profiling(system.simulator) as profiler:
            assert system.simulator.profile_hook is profiler
            system.run_to_quiescence()
        assert system.simulator.profile_hook is None

    def test_context_manager_detaches_on_error(self) -> None:
        simulator = Simulator(seed=0)
        with pytest.raises(RuntimeError):
            with profiling(simulator):
                raise RuntimeError("boom")
        assert simulator.profile_hook is None


class TestReport:
    def run_profiled(self, k: int = 4, sample_every: int = 8):
        system = make_cycle_system(k)
        with profiling(system.simulator, sample_every=sample_every) as profiler:
            system.run_to_quiescence()
        return system, profiler.report()

    def test_counts_every_executed_event(self) -> None:
        system, report = self.run_profiled()
        assert report.events == system.simulator.events_executed
        assert report.events == sum(c.events for c in report.by_category)

    def test_wall_clock_totals_are_consistent(self) -> None:
        _, report = self.run_profiled()
        assert report.handler_seconds >= 0
        assert report.wall_seconds >= report.handler_seconds
        assert report.events_per_second > 0
        total = sum(c.wall_seconds for c in report.by_category)
        assert total == pytest.approx(report.handler_seconds)

    def test_categories_separate_detection_from_base_traffic(self) -> None:
        _, report = self.run_profiled()
        names = {c.category for c in report.by_category}
        assert "deliver Probe" in names
        assert "deliver Request" in names

    def test_queue_depth_signal(self) -> None:
        system, report = self.run_profiled(sample_every=4)
        assert report.queue_depth_max >= 1
        sampled = system.simulator.tracer.events(categories.PROFILE_QUEUE_SAMPLED)
        assert len(sampled) == report.queue_depth_samples > 0
        assert all(event["depth"] >= 0 for event in sampled)

    def test_gauge_backed_counters_match_the_trace(self) -> None:
        # regression for the rewrite onto repro.obs.metrics.GaugeMetric:
        # with sample_every=1 every executed event is sampled, so the
        # report's high-water mark and sample count must equal what the
        # trace itself records -- byte-identical to the hand-rolled ints
        # the profiler used before.
        system, report = self.run_profiled(sample_every=1)
        sampled = system.simulator.tracer.events(categories.PROFILE_QUEUE_SAMPLED)
        assert report.queue_depth_samples == len(sampled) == report.events
        assert report.queue_depth_max == max(event["depth"] for event in sampled)
        assert isinstance(report.queue_depth_max, int)

    def test_render_mentions_the_headline_numbers(self) -> None:
        _, report = self.run_profiled()
        text = report.render()
        assert "events/s" in text
        assert "sim.queue.depth" in text
        assert "deliver Probe" in text


class TestDeterminism:
    def virtual_artifacts(self, seed: int) -> list[tuple[float, int, int]]:
        system = BasicSystem(n_vertices=5, seed=seed)
        for i in range(5):
            system.schedule_request(i * 0.5, i, [(i + 1) % 5])
        with profiling(system.simulator, sample_every=8):
            system.run_to_quiescence()
        return [
            (event.time, event["depth"], event["events_executed"])
            for event in system.simulator.tracer.events(categories.PROFILE_QUEUE_SAMPLED)
        ]

    def test_virtual_time_artifacts_identical_across_runs(self) -> None:
        assert self.virtual_artifacts(7) == self.virtual_artifacts(7)

    def test_profiling_does_not_change_the_simulation(self) -> None:
        bare = make_cycle_system(4)
        bare.run_to_quiescence()
        profiled = make_cycle_system(4)
        with profiling(profiled.simulator):
            profiled.run_to_quiescence()
        assert [
            (e.time, e.category) for e in bare.simulator.tracer
        ] == [
            (e.time, e.category)
            for e in profiled.simulator.tracer
            if e.category != categories.PROFILE_QUEUE_SAMPLED
        ]
        assert bare.declarations == profiled.declarations
