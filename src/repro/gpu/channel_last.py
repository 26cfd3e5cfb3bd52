"""Implicit channel-last im2col on tensor cores (the Lym-et-al.-style path).

This is the design the paper argues today's GPUs resemble (Sec. II-C): the
thread block stages the IFMap region covering its outputs' sliding windows
into the multi-banked shared memory, and a crossbar gathers lowered-matrix
columns from it each cycle.

Timing consequences modelled here:

- The GEMM compute shrinks ~quadratically with stride (fewer output pixels),
  but the staged region — and hence the fill traffic — is set by the *input*
  geometry and barely shrinks (:func:`channel_last_fill_bytes`).  At
  stride 1 the fills hide under compute; at stride 2/4 the kernel tips
  memory-bound and TFLOPS collapses, reproducing Fig 4a.
- Per-element address generation through the crossbar costs a little
  throughput even at stride 1 (``addressing_overhead``), which is why the
  paper measures implicit conv at slightly below equivalent-GEMM TFLOPS
  (Fig 4a's GEMM series sits above the stride-1 bars).
"""

from __future__ import annotations

from ..core.conv_spec import ConvSpec
from .blocked_gemm import KernelTime, kernel_time, price_kernel
from .config import GPUConfig
from .shared_memory import (
    channel_last_fill_bytes,
    gemm_b_traffic_bytes,
    gemm_c_traffic_bytes,
)

__all__ = ["channel_last_conv_time", "stride_conflict_factor"]

#: Fractional throughput cost of the per-element crossbar address generation.
ADDRESSING_OVERHEAD = 0.03

#: How fast the channel-last fill path degrades with stride.  The bank-
#: conflict-free SRAM layout of Lym et al. is constructed offline for unit
#: stride; a stride-s window read hits ``s``-strided banks, serialising part
#: of every crossbar transfer (Sec. II-C: the existing design "is inefficient
#: in executing common CONV variants such as strided and dilated CONV").
STRIDE_CONFLICT_PENALTY = 0.3


def stride_conflict_factor(stride: int, penalty: float = STRIDE_CONFLICT_PENALTY) -> float:
    """Effective slowdown of the channel-last staging path at a given stride."""
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if penalty < 0:
        raise ValueError(f"penalty must be non-negative, got {penalty}")
    return 1.0 + penalty * (stride - 1)


def _channel_last_kernel(
    spec: ConvSpec, config: GPUConfig, addressing_overhead: float
) -> KernelTime:
    if not (0.0 <= addressing_overhead < 1.0):
        raise ValueError(f"addressing_overhead must be in [0,1), got {addressing_overhead}")
    shape = spec.gemm_shape()
    staged = int(channel_last_fill_bytes(spec, config) * stride_conflict_factor(spec.stride))
    streamed = gemm_b_traffic_bytes(shape.m, shape.k, shape.n, config) + gemm_c_traffic_bytes(
        shape.m, shape.n, config
    )
    if spec.is_pointwise():
        # A 1x1 conv's "lowered matrix" is the IFMap itself (possibly
        # row/column-subsampled): channel-contiguous reads, no window gather.
        streamed += staged
        staged = 0
    base = kernel_time(
        "implicit-channel-last",
        shape.m,
        shape.k,
        shape.n,
        streamed,
        config,
        macs=shape.macs,
        staged_bytes=staged,
    )
    return base.scaled(1.0 + addressing_overhead, name=base.name)


def channel_last_conv_time(
    spec: ConvSpec, config: GPUConfig, addressing_overhead: float = ADDRESSING_OVERHEAD
) -> KernelTime:
    """Kernel time of the channel-last implicit conv for one layer."""
    return price_kernel("gpu.channel_last", _channel_last_kernel, spec, config, addressing_overhead)
