"""Common infrastructure for baseline detectors.

Baselines run as *overlays* on a :class:`~repro.basic.system.BasicSystem`:
they read only each vertex's local knowledge (``pending_out`` -- what P3
grants any detector) at simulated message-delivery instants, count the
messages a distributed implementation would send, and record detections
with a ground-truth verdict from the oracle.  The overlay style keeps the
underlying computation identical across detectors, which is what makes the
E8 comparison fair.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro._ids import VertexId
from repro.basic.system import BasicSystem
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BaselineDetection:
    """One deadlock declaration by a baseline detector."""

    time: float
    vertex: VertexId
    #: was the vertex actually on a dark cycle at declaration time?
    genuine: bool


@dataclass
class BaselineReport:
    """Outcome of one baseline run."""

    name: str
    detections: list[BaselineDetection] = field(default_factory=list)
    messages: int = 0

    @property
    def true_detections(self) -> list[BaselineDetection]:
        return [d for d in self.detections if d.genuine]

    @property
    def false_detections(self) -> list[BaselineDetection]:
        return [d for d in self.detections if not d.genuine]

    @property
    def false_positive_rate(self) -> float:
        """Fraction of detections that were phantoms (0 if none declared)."""
        if not self.detections:
            return 0.0
        return len(self.false_detections) / len(self.detections)

    def detected_vertices(self) -> set[VertexId]:
        return {d.vertex for d in self.detections}


class BaselineDetector:
    """Base class: binds to a system, owns a report, declares with verdicts,
    and runs the periodic detectors' rounds."""

    name = "baseline"
    #: a periodic detector's round period, and the latest virtual time a
    #: round may be due at (see :meth:`_start_rounds`).
    period: float
    horizon: float

    def __init__(self, system: BasicSystem) -> None:
        self.system = system
        self.report = BaselineReport(name=self.name)
        self._declared: set[VertexId] = set()
        self._rng = system.transport.rng.stream(f"baseline.{self.name}")
        #: rounds begun so far by :meth:`_start_rounds`.
        self.rounds_started = 0

    def start(self) -> None:
        """Begin operating; subclasses schedule their first round here."""
        raise NotImplementedError

    def _start_rounds(self, round_: Callable[[], None], name: str) -> None:
        """Run ``round_`` every ``period``, the first one period from now,
        and each later one while its due time is at most ``horizon``.

        A round's due time is the virtual time it was scheduled for: the
        first round's, plus ``period`` per round since.  It is counted,
        not read from the clock, because on a wall-clock transport the
        clock runs on while the host stalls, so a round that ran late
        would see too little of the horizon left and stop the rounds
        early.  The next round is still scheduled ``period`` after the
        current one runs, so rounds stay a period apart.  On the
        simulator a round runs exactly at its due time, so the schedule
        is the one the clock would give.
        """
        transport = self.system.transport
        period = self.period
        due = transport.now + period

        def run_round() -> None:
            nonlocal due
            self.rounds_started += 1
            round_()
            due += period
            if due <= self.horizon:
                transport.schedule(period, run_round, name=name)

        transport.schedule(period, run_round, name=name)

    def _charge_messages(self, count: int) -> None:
        if count < 0:
            raise ConfigurationError("message count cannot be negative")
        self.report.messages += count

    def _declare(self, vertex: VertexId) -> None:
        """Record a detection (once per vertex) with the oracle's verdict."""
        if vertex in self._declared:
            return
        self._declared.add(vertex)
        genuine = self.system.oracle.is_on_dark_cycle(vertex)
        self.report.detections.append(
            BaselineDetection(time=self.system.now, vertex=vertex, genuine=genuine)
        )
