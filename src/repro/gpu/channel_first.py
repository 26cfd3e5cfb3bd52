"""Block-level channel-first implicit im2col on tensor cores (Sec. V).

Our GPU implementation: the equivalent GEMM is blocked first (each thread
block owns an output tile, so no atomics are needed — Fig 12), and *within*
a block the K-march visits decomposed filters channel-first.  The A-operand
staging per decomposed filter is exactly the decomposed tile slice, which

- shrinks with stride together with the compute (stride-insensitive, the
  advantage over cuDNN in Fig 18a), and
- overlaps heavily between consecutive decomposed filters, so reordering
  them (:func:`repro.core.reordering.greedy_reuse_order`) cuts the fill
  traffic by the achieved reuse fraction (Fig 18b).
"""

from __future__ import annotations

import dataclasses

from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from ..core.reordering import greedy_reuse_order, order_reuse_fraction
from .blocked_gemm import KernelTime, kernel_time, price_kernel
from .config import GPUConfig
from .shared_memory import (
    channel_first_fill_bytes,
    gemm_b_traffic_bytes,
    gemm_c_traffic_bytes,
)

__all__ = ["ChannelFirstGPUResult", "channel_first_conv_time"]

#: Our kernel's software address generation costs slightly more than the
#: hand-tuned vendor kernels at stride 1 (Fig 17 measures us ~1% behind).
ADDRESSING_OVERHEAD = 0.04


@dataclasses.dataclass(frozen=True)
class ChannelFirstGPUResult:
    """Kernel time plus the reuse statistics that produced it."""

    kernel: KernelTime
    reuse_fraction: float
    reordered: bool

    @property
    def seconds(self) -> float:
        return self.kernel.seconds

    @property
    def tflops(self) -> float:
        return self.kernel.tflops


def _channel_first_result(
    spec: ConvSpec, config: GPUConfig, reorder: bool, addressing_overhead: float
) -> ChannelFirstGPUResult:
    if not (0.0 <= addressing_overhead < 1.0):
        raise ValueError(f"addressing_overhead must be in [0,1), got {addressing_overhead}")
    shape = spec.gemm_shape()
    if reorder:
        order = greedy_reuse_order(spec)
        reuse = order_reuse_fraction(spec, order)
    else:
        # Without the optimization the kernel refetches each decomposed
        # subtile from global memory — "no data reuse" in the paper's naive
        # order (Sec. V, Fig 12).
        reuse = 0.0
    staged = channel_first_fill_bytes(spec, config, reuse_fraction=reuse)
    streamed = gemm_b_traffic_bytes(shape.m, shape.k, shape.n, config) + gemm_c_traffic_bytes(
        shape.m, shape.n, config
    )
    if spec.is_pointwise():
        # 1x1: the single decomposed tile reads channel-contiguous vectors —
        # a stream, no gather (mirrors the channel-last path's special case).
        streamed += staged
        staged = 0
    else:
        # Channel-first staging reads dense C_I-contiguous vectors and
        # coalesces better than a window gather; fold the bonus into the
        # byte count so kernel_time's single staging rate applies.
        staged = int(staged / config.channel_first_staging_bonus)
    base = kernel_time(
        "implicit-channel-first",
        shape.m,
        shape.k,
        shape.n,
        streamed,
        config,
        macs=shape.macs,
        staged_bytes=staged,
    )
    kernel = base.scaled(1.0 + addressing_overhead, name=base.name)
    return ChannelFirstGPUResult(kernel=kernel, reuse_fraction=reuse, reordered=reorder)


def channel_first_conv_time(
    spec: ConvSpec,
    config: GPUConfig,
    reorder: bool = True,
    addressing_overhead: float = ADDRESSING_OVERHEAD,
) -> ChannelFirstGPUResult:
    """Kernel time of our block-level channel-first conv for one layer.

    ``reorder=False`` visits decomposed filters in naive row-major order
    (no inter-tile reuse) — the Fig 18b ablation baseline.
    """

    def check(result: ChannelFirstGPUResult, config: GPUConfig) -> None:
        audit_invariants.check_gpu_kernel(result.kernel, config)
        audit_invariants.check_gpu_channel_first(spec, result, config)

    return price_kernel(
        "gpu.channel_first", _channel_first_result, spec, config, reorder,
        addressing_overhead, check=check,
    )
