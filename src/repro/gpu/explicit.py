"""The explicit im2col path on the GPU (the Fig 2a baseline).

Two kernels:

1. **Transform kernel** — materialise the lowered matrix.  Pure data
   movement: read the IFMap (gather; each element is read once per receptive
   field it appears in, i.e. the *lowered* volume is read) and write the
   lowered matrix.  Bandwidth-bound by construction.
2. **GEMM kernel** — a plain DRAM-resident GEMM over the lowered matrix,
   identical to the implicit methods' GEMM shape.  This is why the paper's
   measurement shows the explicit method's GEMM time matching the implicit
   method's total time (Sec. II-B): the GEMM is the same; the transform is
   pure overhead.

The lowered matrix also costs DRAM *capacity*: ``workspace_bytes`` is the
Table I quantity.
"""

from __future__ import annotations

import dataclasses

from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from .blocked_gemm import KernelTime, _gemm_kernel, price_kernel
from .config import GPUConfig

__all__ = ["ExplicitConvResult", "explicit_conv_time", "im2col_transform_time"]


@dataclasses.dataclass(frozen=True)
class ExplicitConvResult:
    """Timing + workspace of the explicit path for one layer."""

    transform: KernelTime
    gemm: KernelTime
    workspace_bytes: int

    @property
    def seconds(self) -> float:
        return self.transform.seconds + self.gemm.seconds

    @property
    def transform_fraction(self) -> float:
        return self.transform.seconds / self.seconds if self.seconds > 0 else 0.0

    @property
    def tflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return 2 * self.gemm.macs / self.seconds / 1e12


def _im2col_transform(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    lowered = spec.lowered_bytes(config.elem_bytes)
    traffic = spec.ifmap_bytes(config.elem_bytes) + lowered
    memory_seconds = traffic / config.sustained_bandwidth_bps
    return KernelTime(
        name="im2col-transform",
        seconds=memory_seconds + config.kernel_overhead_s,
        compute_seconds=0.0,
        memory_seconds=memory_seconds,
        traffic_bytes=traffic,
        macs=0,
    )


def _explicit_result(spec: ConvSpec, config: GPUConfig) -> ExplicitConvResult:
    return ExplicitConvResult(
        transform=_im2col_transform(spec, config),
        gemm=_gemm_kernel(spec.gemm_shape(), config, "explicit-gemm"),
        workspace_bytes=spec.lowered_bytes(config.elem_bytes),
    )


def im2col_transform_time(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    """The lowering kernel: read the IFMap (gathers hit cache for the
    duplicated taps, so DRAM sees each input element about once) and write
    the lowered matrix once — ``ifmap + lowered`` bytes of traffic, zero
    MACs."""
    return price_kernel("gpu.im2col_transform", _im2col_transform, spec, config)


def explicit_conv_time(spec: ConvSpec, config: GPUConfig) -> ExplicitConvResult:
    """Full explicit-im2col conv: transform, then GEMM on the lowered matrix."""
    return price_kernel("gpu.explicit", _explicit_result, spec, config, check=_check_kernels)


def _check_kernels(result: ExplicitConvResult, config: GPUConfig) -> None:
    audit_invariants.check_gpu_kernel(result.transform, config)
    audit_invariants.check_gpu_kernel(result.gemm, config)
