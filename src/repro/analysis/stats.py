"""Small statistics helpers (dependency-free).

Experiments run several seeds per configuration; these helpers summarise
the replications.  The 95% confidence interval uses the normal
approximation, adequate for the replication counts used here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n - 1); zero for fewer than two values."""
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(math.fsum((v - center) ** 2 for v in values) / (len(values) - 1))


def confidence_interval_95(values: Sequence[float]) -> float:
    """Half-width of the 95% CI around the mean (normal approximation)."""
    if len(values) < 2:
        return 0.0
    return 1.96 * stdev(values) / math.sqrt(len(values))


@dataclass(frozen=True)
class Summary:
    count: int
    mean: float
    stdev: float
    ci95: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    return Summary(
        count=len(values),
        mean=mean(values),
        stdev=stdev(values),
        ci95=confidence_interval_95(values),
        minimum=min(values),
        maximum=max(values),
    )
