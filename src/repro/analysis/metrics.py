"""Performance metrics and error statistics used across experiments."""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

__all__ = [
    "relative_error",
    "mean_absolute_percentage_error",
    "ErrorStats",
    "error_stats",
    "geometric_mean",
]


def relative_error(simulated: float, measured: float) -> float:
    """|sim - meas| / meas — the per-point validation error."""
    if measured <= 0:
        raise ValueError(f"measured must be positive, got {measured}")
    return abs(simulated - measured) / measured


def mean_absolute_percentage_error(
    simulated: Sequence[float], measured: Sequence[float]
) -> float:
    """MAPE in percent — the aggregate the paper quotes (4.42%, 5.8%, ...)."""
    if len(simulated) != len(measured) or not simulated:
        raise ValueError("sequences must be equal-length and non-empty")
    return 100.0 * sum(
        relative_error(s, m) for s, m in zip(simulated, measured)
    ) / len(simulated)


@dataclasses.dataclass(frozen=True)
class ErrorStats:
    """Distributional summary of per-point relative errors (Fig 15b)."""

    count: int
    mean_pct: float
    median_pct: float
    p90_pct: float
    max_pct: float


def error_stats(simulated: Sequence[float], measured: Sequence[float]) -> ErrorStats:
    if len(simulated) != len(measured) or not simulated:
        raise ValueError("sequences must be equal-length and non-empty")
    errors = sorted(
        100.0 * relative_error(s, m) for s, m in zip(simulated, measured)
    )
    n = len(errors)

    def _quantile(q: float) -> float:
        index = min(n - 1, max(0, int(math.ceil(q * n)) - 1))
        return errors[index]

    return ErrorStats(
        count=n,
        mean_pct=sum(errors) / n,
        median_pct=_quantile(0.5),
        p90_pct=_quantile(0.9),
        max_pct=errors[-1],
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geomean, the right average for speedup ratios."""
    if not values:
        raise ValueError("values must be non-empty")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
