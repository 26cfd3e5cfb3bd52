"""Convolution variants on the GPU: dilated and deformable (Sec. II-C).

The paper's indictment of the channel-last design is that it "incurs
significant performance overhead for common convolution variants such as
strided and deformable convolution".  Strided is Fig 4/18a; this module
models the other two variants so the extension experiments can quantify the
same asymmetry:

- **Dilated** convolution widens the sliding-window footprint by the
  dilation factor (the channel-last staging region grows) while the
  channel-first decomposed tiles are untouched — their taps are simply
  further apart.
- **Deformable** convolution's data-dependent fractional taps defeat any
  offline bank-conflict-free layout entirely: the channel-last/crossbar
  kernel must fall back to an *explicit* gather that materialises the
  lowered matrix (4 bilinear reads per tap, then a plain GEMM), while the
  channel-first path fuses the same gather into its per-tile staging.
"""

from __future__ import annotations

from ..core.conv_spec import ConvSpec
from ..core.deformable import gather_traffic_elements
from .blocked_gemm import KernelTime, _gemm_kernel, kernel_time, price_kernel
from .channel_first import channel_first_conv_time
from .channel_last import channel_last_conv_time
from .config import GPUConfig
from .shared_memory import gemm_b_traffic_bytes, gemm_c_traffic_bytes

__all__ = [
    "dilated_conv_times",
    "deformable_conv_time_channel_first",
    "deformable_conv_time_fallback",
]


def dilated_conv_times(spec: ConvSpec, config: GPUConfig):
    """(channel_last, channel_first) kernel times for a dilated conv.

    Both paths already consume dilation through :class:`ConvSpec`; this
    helper exists so experiments compare them symmetrically.
    """
    if spec.dilation <= 1:
        raise ValueError("use the plain conv paths for dilation 1")
    return (
        channel_last_conv_time(spec, config),
        channel_first_conv_time(spec, config),
    )


def deformable_conv_time_channel_first(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    """Our implicit path with the bilinear gather fused into staging.

    Staging per decomposed tile grows 4x (the bilinear corners); offsets
    (2 floats per tap position) stream once.  No lowered matrix is ever
    materialised.  Inter-tile reuse does not apply — the learned offsets
    decorrelate neighbouring tiles' working sets.
    """
    return price_kernel("gpu.deformable_channel_first", _deformable_channel_first, spec, config)


def deformable_conv_time_fallback(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    """The channel-last ecosystem's route: explicit gather + GEMM.

    A gather kernel materialises the lowered matrix (read 4 bilinear corners
    per tap + offsets, write the lowered matrix), then a plain GEMM consumes
    it from DRAM.  Reported as one combined kernel time.
    """
    return price_kernel("gpu.deformable_fallback", _deformable_fallback, spec, config)


def _deformable_channel_first(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    shape = spec.gemm_shape()
    elem = config.elem_bytes
    staged = gather_traffic_elements(spec) * elem
    offsets = spec.n * 2 * spec.positions * spec.h_out * spec.w_out * 4  # fp32 offsets
    streamed = (
        gemm_b_traffic_bytes(shape.m, shape.k, shape.n, config)
        + gemm_c_traffic_bytes(shape.m, shape.n, config)
        + offsets
    )
    return kernel_time(
        "deformable-channel-first",
        shape.m,
        shape.k,
        shape.n,
        streamed,
        config,
        macs=shape.macs,
        staged_bytes=staged,
    )


def _deformable_fallback(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    shape = spec.gemm_shape()
    elem = config.elem_bytes
    gather_read = gather_traffic_elements(spec) * elem
    offsets = spec.n * 2 * spec.positions * spec.h_out * spec.w_out * 4
    lowered = spec.lowered_bytes(elem)
    transform_seconds = (
        gather_read / config.staging_bandwidth_bps
        + (offsets + lowered) / config.sustained_bandwidth_bps
        + config.kernel_overhead_s
    )
    gemm = _gemm_kernel(shape, config, "deformable-explicit-gemm")
    combined_traffic = gather_read + offsets + lowered + gemm.traffic_bytes
    return KernelTime(
        name="deformable-explicit",
        seconds=transform_seconds + gemm.seconds,
        compute_seconds=gemm.compute_seconds,
        memory_seconds=transform_seconds - config.kernel_overhead_s + gemm.memory_seconds,
        traffic_bytes=combined_traffic,
        macs=shape.macs,
    )
