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
    """Base class: binds to a system, owns a report, declares with verdicts."""

    name = "baseline"

    def __init__(self, system: BasicSystem) -> None:
        self.system = system
        self.report = BaselineReport(name=self.name)
        self._declared: set[VertexId] = set()
        self._rng = system.transport.rng.stream(f"baseline.{self.name}")

    def start(self) -> None:
        """Begin operating; subclasses schedule their first round here."""
        raise NotImplementedError

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
