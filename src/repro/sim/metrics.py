"""Counters and histograms for experiment accounting.

The benchmark harness needs exact message counts (experiment E3: at most one
probe per edge per computation) and latency distributions (E5: detection
latency vs the T parameter).  Metrics are plain in-memory objects owned by a
:class:`MetricsRegistry`; nothing here is thread-aware because the simulator
is single-threaded by construction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


@dataclass
class HistogramSummary:
    """Summary statistics of a histogram at one point in time."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


class Histogram:
    """A value recorder with exact quantiles.

    Stores all observations (simulations here record at most a few hundred
    thousand values); quantiles are computed on demand by sorting with the
    nearest-rank method.
    """

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot record NaN")
        self._values.append(value)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        """A copy of all recorded values.

        Recording order is **not** guaranteed: quantile queries
        (:meth:`quantile`, :meth:`summary`) sort the backing list in place,
        so after any such query the values come back sorted instead of in
        insertion order.  The returned list is always a fresh copy, so
        mutating it never affects the histogram.
        """
        return list(self._values)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; ``q`` in [0, 1].  Raises on empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(0, math.ceil(q * len(self._values)) - 1)
        return self._values[rank]

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return sum(self._values) / len(self._values)

    def summary(self) -> HistogramSummary:
        """Return a :class:`HistogramSummary`; raises on empty histograms."""
        return HistogramSummary(
            count=self.count,
            mean=self.mean,
            minimum=self.quantile(0.0),
            maximum=self.quantile(1.0),
            p50=self.quantile(0.5),
            p90=self.quantile(0.9),
            p99=self.quantile(0.99),
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class Gauge:
    """A point-in-time value that can move both ways.

    Counters are monotone by contract; gauges track levels that rise and
    fall, such as the event-queue depth the profiling layer
    (:mod:`repro.obs.profile`) keeps in ``sim.queue.depth`` and samples
    into a time series of the same name.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"gauge {self.name!r} cannot be set to NaN")
        self._value = value

    def increment(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def decrement(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


@dataclass(frozen=True)
class Sample:
    """One time-series observation: a value at a virtual-time instant."""

    time: float
    value: float


class TimeSeries:
    """An append-only sequence of ``(virtual time, value)`` samples.

    Used for level-over-time telemetry such as event-queue depth.  Sample
    times must be non-decreasing, which the single-threaded simulator
    guarantees for anything recorded from inside event handlers.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: list[Sample] = []

    def record(self, time: float, value: float) -> None:
        if self._samples and time < self._samples[-1].time:
            raise ValueError(
                f"time series {self.name!r} requires non-decreasing times: "
                f"got {time} after {self._samples[-1].time}"
            )
        self._samples.append(Sample(time=time, value=value))

    @property
    def samples(self) -> list[Sample]:
        """A copy of all samples, in recording order."""
        return list(self._samples)

    @property
    def last(self) -> Sample | None:
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, samples={len(self._samples)})"


class _LazyMetricDict(dict):  # type: ignore[type-arg]
    """A ``dict`` that builds the metric on first access (``__missing__``).

    Registration is thereby *lazy*: a metric exists only once something
    touches it, and the steady-state lookup ``registry.counters[name]`` is
    one hash probe with no ``get``/``is None`` detour -- the accessor
    methods below sit on hot paths (one counter bump per message sent).
    """

    __slots__ = ("_factory",)

    def __init__(self, factory: Callable[[str], Any]) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, name: str) -> Any:
        metric = self._factory(name)
        self[name] = metric
        return metric


class MetricsRegistry:
    """Owner of named counters, histograms, gauges, and time series.

    ``counter(name)`` / ``histogram(name)`` / ``gauge(name)`` /
    ``timeseries(name)`` create on first use and memoise (lazily, via
    ``__missing__``), so call sites never need to pre-register metrics.
    Hot call sites should nevertheless bind the returned object once --
    the metric instance is stable for the registry's lifetime.
    """

    __slots__ = ("counters", "gauges", "histograms", "series")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = _LazyMetricDict(Counter)
        self.histograms: dict[str, Histogram] = _LazyMetricDict(Histogram)
        self.gauges: dict[str, Gauge] = _LazyMetricDict(Gauge)
        self.series: dict[str, TimeSeries] = _LazyMetricDict(TimeSeries)

    def counter(self, name: str) -> Counter:
        return self.counters[name]

    def histogram(self, name: str) -> Histogram:
        return self.histograms[name]

    def gauge(self, name: str) -> Gauge:
        return self.gauges[name]

    def timeseries(self, name: str) -> TimeSeries:
        return self.series[name]

    def counter_value(self, name: str) -> int:
        """Value of a counter, 0 if it was never touched.

        Deliberately does **not** instantiate the counter: reading a value
        must not mutate the registry (snapshots stay minimal).
        """
        existing = self.counters.get(name)
        return existing.value if existing is not None else 0

    def snapshot(self) -> dict[str, int]:
        """All counter values as a plain dict (for table rendering)."""
        return {name: counter.value for name, counter in sorted(self.counters.items())}

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, gauges={len(self.gauges)}, "
            f"series={len(self.series)})"
        )
