"""Simulator-vs-measurement comparison machinery (Figs 13, 14b, 15).

A :class:`ValidationRun` collects (label, simulated, measured) points and
summarises them the way the paper reports validation: per-point relative
errors, the average error, and the layer-wise error distribution.
"""

from __future__ import annotations

import dataclasses
from typing import List

from .metrics import ErrorStats, error_stats, mean_absolute_percentage_error, relative_error

__all__ = ["ValidationPoint", "ValidationRun"]


@dataclasses.dataclass(frozen=True)
class ValidationPoint:
    """One workload's simulated-vs-measured pair (any consistent unit)."""

    label: str
    simulated: float
    measured: float

    @property
    def error_pct(self) -> float:
        return 100.0 * relative_error(self.simulated, self.measured)


@dataclasses.dataclass
class ValidationRun:
    """An accumulating set of validation points."""

    name: str
    points: List[ValidationPoint] = dataclasses.field(default_factory=list)

    def add(self, label: str, simulated: float, measured: float) -> ValidationPoint:
        point = ValidationPoint(label=label, simulated=simulated, measured=measured)
        self.points.append(point)
        return point

    def mape(self) -> float:
        """Mean absolute percentage error — the paper's headline number."""
        return mean_absolute_percentage_error(
            [p.simulated for p in self.points], [p.measured for p in self.points]
        )

    def stats(self) -> ErrorStats:
        return error_stats(
            [p.simulated for p in self.points], [p.measured for p in self.points]
        )
