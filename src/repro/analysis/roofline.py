"""Roofline helpers: arithmetic intensity and bound classification.

Used by the experiment write-ups to annotate which regime each layer sits in
(the stride experiments are at heart roofline-crossing stories) and by the
Fig 18b layer selection rationale.
"""

from __future__ import annotations

import dataclasses

from ..core.conv_spec import ConvSpec, GemmShape

__all__ = [
    "RooflinePoint",
    "conv_roofline",
    "gemm_roofline",
    "cycle_lower_bound",
]


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """One workload placed on a machine's roofline."""

    intensity_flops_per_byte: float
    attainable_tflops: float
    peak_tflops: float
    bound: str  # "compute" | "memory"


def _place(flops: int, traffic_bytes: int, peak_tflops: float, bandwidth_gbps: float):
    if traffic_bytes <= 0:
        raise ValueError("traffic must be positive")
    intensity = flops / traffic_bytes
    memory_roof = bandwidth_gbps * 1e9 * intensity / 1e12
    attainable = min(peak_tflops, memory_roof)
    bound = "compute" if memory_roof >= peak_tflops else "memory"
    return RooflinePoint(
        intensity_flops_per_byte=intensity,
        attainable_tflops=attainable,
        peak_tflops=peak_tflops,
        bound=bound,
    )


def conv_roofline(
    spec: ConvSpec, peak_tflops: float, bandwidth_gbps: float, elem_bytes: int = 2
) -> RooflinePoint:
    """Place a conv layer on the roofline using compulsory traffic
    (IFMap + weights + OFMap, each moved once)."""
    traffic = (
        spec.ifmap_bytes(elem_bytes) + spec.filter_bytes(elem_bytes) + spec.ofmap_bytes(elem_bytes)
    )
    return _place(spec.flops, traffic, peak_tflops, bandwidth_gbps)


def gemm_roofline(
    shape: GemmShape, peak_tflops: float, bandwidth_gbps: float, elem_bytes: int = 2
) -> RooflinePoint:
    return _place(shape.flops, shape.bytes_moved(elem_bytes), peak_tflops, bandwidth_gbps)


def cycle_lower_bound(
    macs: int,
    peak_macs_per_cycle: float,
    read_bytes: int = 0,
    write_bytes: int = 0,
    bytes_per_cycle: float = 0.0,
) -> float:
    """A directional roofline lower bound on a layer's cycle count.

    No schedule can beat the compute roof (``macs / peak_macs_per_cycle``)
    or either memory direction's streaming time at peak per-direction
    bandwidth (``bytes / bytes_per_cycle``).  Reads and writes are bounded
    *separately* — the memory system moves them on independent channels,
    so summing them (the classic single-stream roofline) would overstate
    the bound for bidirectional HBM.  The audit layer uses this as the
    ``*.latency.roofline`` invariant: simulated cycles below this value
    mean the model created throughput out of thin air.
    """
    if peak_macs_per_cycle <= 0:
        raise ValueError("peak_macs_per_cycle must be positive")
    bound = macs / peak_macs_per_cycle
    if bytes_per_cycle > 0:
        bound = max(bound, read_bytes / bytes_per_cycle, write_bytes / bytes_per_cycle)
    return bound
