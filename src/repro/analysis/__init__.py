"""Analysis: metrics, roofline placement, and simulator-vs-measurement
validation machinery."""

from .metrics import (
    ErrorStats,
    error_stats,
    geometric_mean,
    mean_absolute_percentage_error,
    relative_error,
)
from .roofline import RooflinePoint, conv_roofline, gemm_roofline
from .validation import ValidationPoint, ValidationRun

__all__ = [
    "ErrorStats",
    "error_stats",
    "geometric_mean",
    "mean_absolute_percentage_error",
    "relative_error",
    "RooflinePoint",
    "conv_roofline",
    "gemm_roofline",
    "ValidationPoint",
    "ValidationRun",
]
