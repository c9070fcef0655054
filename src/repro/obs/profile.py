"""Opt-in wall-clock profiling of the simulator itself.

The ROADMAP's "fast as the hardware allows" goal needs the hot path to be
*measurable* before it is optimised.  This module implements the
:class:`~repro.sim.simulator.ProfileHook` protocol: attach a
:class:`SimulatorProfiler` (or use the :func:`profiling` context manager)
and every executed event is timed with ``time.perf_counter`` and
aggregated by handler category (derived from the event's schedule name:
``deliver Probe``, ``service``, ``request``, ...).

**This is the only module in the lint-scoped packages allowed to read the
wall clock** -- rule RPX002 carries a narrow, documented allowlist for
exactly this file.  The discipline that keeps the allowlist sound:

* wall-clock readings never flow back into the simulation -- no schedule
  delay, message delay, or protocol decision may depend on them;
* everything the profiler feeds *into* shared state (the
  ``profile.queue.sampled`` trace events, one per queue-depth sample) is
  stamped with **virtual** time and derived from deterministic quantities
  (event counts, queue depth), so traces stay replayable;
* wall-clock numbers leave the process only through :class:`ProfileReport`.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs.metrics import GaugeMetric
from repro.sim import categories
from repro.sim.events import HeapPayload
from repro.sim.simulator import Simulator


def handler_category(name: str) -> str:
    """Aggregation key for an event's schedule name.

    The first word of the name identifies the handler (``service``,
    ``request``, ``think``, ...); delivery events keep the message type
    (``deliver Probe`` vs ``deliver Request``), which is what separates
    detection traffic from base traffic in the report.
    """
    if not name:
        return "<anonymous>"
    parts = name.split()
    if parts[0] == "deliver" and len(parts) > 1:
        return f"deliver {parts[1]}"
    return parts[0]


@dataclass(frozen=True)
class CategoryProfile:
    """Aggregated wall time for one handler category."""

    category: str
    events: int
    wall_seconds: float


@dataclass(frozen=True)
class ProfileReport:
    """One profiling window, summarised."""

    events: int
    #: wall-clock seconds spent inside event handlers
    handler_seconds: float
    #: wall-clock seconds between attach and report (includes engine
    #: overhead: queue pops, clock advances, the profiler itself)
    wall_seconds: float
    events_per_second: float
    by_category: tuple[CategoryProfile, ...]
    queue_depth_max: int
    queue_depth_samples: int

    def render(self) -> str:
        lines = [
            f"simulator profile: {self.events} events in {self.wall_seconds:.4f} s "
            f"wall ({self.events_per_second:,.0f} events/s)",
            f"  handler time: {self.handler_seconds:.4f} s "
            f"({self.handler_seconds / self.wall_seconds:.0%} of wall)"
            if self.wall_seconds > 0
            else "  handler time: 0 s",
            f"  event-queue depth: high-water mark {self.queue_depth_max}, "
            f"{self.queue_depth_samples} samples traced as "
            f"'{categories.PROFILE_QUEUE_SAMPLED}'",
            "  by handler category:",
        ]
        width = max((len(c.category) for c in self.by_category), default=8)
        for profile in self.by_category:
            share = (
                profile.wall_seconds / self.handler_seconds
                if self.handler_seconds > 0
                else 0.0
            )
            lines.append(
                f"    {profile.category.ljust(width)}  {profile.events:>8} events  "
                f"{profile.wall_seconds:.4f} s  ({share:.1%})"
            )
        return "\n".join(lines)


class SimulatorProfiler:
    """Times every executed event; samples queue depth periodically.

    Parameters
    ----------
    simulator:
        The simulator to observe.
    sample_every:
        Record one queue-depth sample (trace category
        ``profile.queue.sampled``) every this many events.
        Sampling is driven by the deterministic event counter, so the
        virtual-time artifacts are identical across runs of one seed.
    """

    def __init__(self, simulator: Simulator, sample_every: int = 64) -> None:
        if sample_every < 1:
            raise SimulationError(f"sample_every must be >= 1, got {sample_every}")
        self.simulator = simulator
        self.sample_every = sample_every
        self._attached = False
        self._events = 0
        self._event_started = 0.0
        self._attached_at = 0.0
        self._handler_seconds = 0.0
        self._by_category: dict[str, list[float]] = {}
        # Queue-depth bookkeeping rides the observability layer's gauge
        # primitive (high-water mark + observation count) instead of
        # hand-rolled counters: one gauge tracks the per-event depth (its
        # ``max`` is the report's queue_depth_max), the other is set only
        # on sampled events (its ``observations`` is the sample count).
        self._depth_gauge = GaugeMetric()
        self._sampled_gauge = GaugeMetric()

    # -- ProfileHook interface ------------------------------------------

    def before_event(self, event: HeapPayload) -> None:
        self._event_started = time.perf_counter()

    def after_event(self, event: HeapPayload, queue_depth: int) -> None:
        elapsed = time.perf_counter() - self._event_started
        self._events += 1
        self._handler_seconds += elapsed
        bucket = self._by_category.setdefault(handler_category(event.name), [0, 0.0])
        bucket[0] += 1
        bucket[1] += elapsed
        self._depth_gauge.set(queue_depth)
        if self._events % self.sample_every == 0:
            self._sample(queue_depth)

    # -- lifecycle ------------------------------------------------------

    def attach(self) -> None:
        """Install this profiler as the simulator's profile hook."""
        if self.simulator.profile_hook is not None:
            raise SimulationError("simulator already has a profile hook attached")
        self.simulator.profile_hook = self
        self._attached = True
        self._attached_at = time.perf_counter()

    def detach(self) -> None:
        """Remove this profiler from the simulator."""
        if self.simulator.profile_hook is not self:
            raise SimulationError("this profiler is not attached to the simulator")
        self.simulator.profile_hook = None
        self._attached = False

    def _sample(self, queue_depth: int) -> None:
        self._sampled_gauge.set(queue_depth)
        self.simulator.trace_now(
            categories.PROFILE_QUEUE_SAMPLED,
            depth=queue_depth,
            events_executed=self.simulator.events_executed,
        )

    # -- reporting ------------------------------------------------------

    def report(self) -> ProfileReport:
        """Summarise the window from :meth:`attach` (or construction) to now."""
        wall = time.perf_counter() - self._attached_at if self._attached_at else 0.0
        by_category = tuple(
            CategoryProfile(category=name, events=int(count), wall_seconds=seconds)
            for name, (count, seconds) in sorted(
                self._by_category.items(), key=lambda item: -item[1][1]
            )
        )
        return ProfileReport(
            events=self._events,
            handler_seconds=self._handler_seconds,
            wall_seconds=wall,
            events_per_second=self._events / wall if wall > 0 else 0.0,
            by_category=by_category,
            queue_depth_max=int(self._depth_gauge.max),
            queue_depth_samples=self._sampled_gauge.observations,
        )


@contextmanager
def profiling(
    simulator: Simulator, sample_every: int = 64
) -> Iterator[SimulatorProfiler]:
    """Profile everything run inside the ``with`` body::

        with profiling(system.simulator) as profiler:
            system.run_to_quiescence()
        print(profiler.report().render())
    """
    profiler = SimulatorProfiler(simulator, sample_every=sample_every)
    profiler.attach()
    try:
        yield profiler
    finally:
        profiler.detach()
