"""Shared-memory staging models for the three GPU convolution paths.

Every GPU kernel here is a blocked GEMM whose A-operand tile is staged into
shared memory; the paths differ *only* in what that staging costs:

- **Plain GEMM** (:func:`gemm_a_traffic_bytes`): the A panel exists in DRAM;
  each output-tile column re-reads it.
- **Explicit im2col**: same as plain GEMM (A is the materialised lowered
  matrix) — the staging cost of the transform kernel lives in
  :mod:`repro.gpu.explicit`.
- **Channel-last implicit** (:func:`channel_last_fill_bytes`): the TB fills
  shared memory with the *IFMap region* covering its output rows' sliding
  windows, then the crossbar gathers lowered columns from it.  The region's
  size is set by the **input** geometry, so it does not shrink when stride
  grows — the root cause of Fig 4a's degradation (Sec. II-C, Fig 3).
- **Channel-first implicit** (:func:`channel_first_fill_bytes`): the TB
  fills exactly the decomposed tile's taps — ``tile_m x C_I`` elements per
  decomposed filter chunk — which shrinks with stride together with the
  compute, and shrinks further under inter-tile reuse (Sec. V).
"""

from __future__ import annotations

import math

from ..core.conv_spec import ConvSpec
from .config import GPUConfig

__all__ = [
    "gemm_a_traffic_bytes",
    "gemm_b_traffic_bytes",
    "gemm_c_traffic_bytes",
    "channel_last_fill_bytes",
    "channel_first_fill_bytes",
]


def _l2_capped_traffic(operand_bytes: int, reloads: int, config: GPUConfig) -> int:
    """DRAM traffic for an operand logically read ``reloads`` times.

    An operand that fits in L2 hits DRAM once; otherwise every pass misses.
    This is the standard two-level reuse picture and what makes small B
    matrices effectively free while huge lowered-A panels stream repeatedly.
    """
    if operand_bytes <= config.l2_bytes:
        return operand_bytes
    return operand_bytes * reloads


def gemm_a_traffic_bytes(m: int, k: int, n: int, config: GPUConfig) -> int:
    """DRAM bytes read for A across the kernel: the panel is logically read
    once per output-tile column, L2-capped."""
    reloads = math.ceil(n / config.tile.tile_n)
    return _l2_capped_traffic(m * k * config.elem_bytes, reloads, config)


def gemm_b_traffic_bytes(m: int, k: int, n: int, config: GPUConfig) -> int:
    """DRAM bytes read for B: logically read once per output-tile row,
    L2-capped (conv weight matrices almost always fit L2 and stream once)."""
    reloads = math.ceil(m / config.tile.tile_m)
    return _l2_capped_traffic(k * n * config.elem_bytes, reloads, config)


def gemm_c_traffic_bytes(m: int, n: int, config: GPUConfig) -> int:
    """DRAM bytes written for C (written exactly once)."""
    return m * n * config.elem_bytes


def channel_last_fill_bytes(spec: ConvSpec, config: GPUConfig) -> int:
    """Total DRAM bytes staged into shared memory by the channel-last path.

    A thread block owning ``tile_m`` output pixels stages the IFMap rows
    covering those pixels' receptive fields.  ``tile_m`` consecutive output
    pixels span about ``tile_m / W_O`` output rows, i.e.
    ``tile_m / W_O * stride + (H_F - stride)`` input rows of the *full input
    width* — input-geometry-sized, hence stride-insensitive per tile.  Each
    TB stages its region once per K-chunk group it marches (the region is
    held while the TB sweeps all H_F*W_F*C_I K-steps), and the whole grid of
    TBs covers M output pixels and reloads per output-tile column like plain
    GEMM.
    """
    t = config.tile
    m_total = spec.lowered_rows()
    # Fractional output rows per tile (a 128-pixel tile spanning 1.14 rows
    # stages 1.14 rows' worth of fresh data plus the filter halo).
    out_rows_per_tile = t.tile_m / spec.w_out
    in_rows_per_tile = min(
        float(spec.h_in + 2 * spec.padding),
        out_rows_per_tile * spec.stride + spec.dilation * (spec.h_filter - 1) + 1 - spec.stride,
    )
    width = spec.w_in + 2 * spec.padding
    tile_bytes = in_rows_per_tile * width * spec.c_in * config.elem_bytes
    tiles_m = m_total / t.tile_m
    reloads = math.ceil(spec.c_out / t.tile_n)
    return int(tile_bytes * tiles_m * reloads)


def channel_first_fill_bytes(
    spec: ConvSpec, config: GPUConfig, reuse_fraction: float = 0.0
) -> int:
    """Total DRAM bytes staged by the block-level channel-first path.

    Per TB and per decomposed filter, the staging is exactly the decomposed
    tile slice: ``tile_m * C_I`` elements — proportional to *output* work,
    hence stride-insensitive in the ratio against compute.  With inter-tile
    reuse reordering, consecutive decomposed filters share a
    ``reuse_fraction`` of their working set, scaling traffic by
    ``(1 - reuse)`` on all but the first tile of each sweep.
    """
    if not (0.0 <= reuse_fraction < 1.0):
        raise ValueError(f"reuse_fraction must be in [0, 1), got {reuse_fraction}")
    t = config.tile
    m_total = spec.lowered_rows()
    positions = spec.positions
    per_position = m_total * spec.c_in * config.elem_bytes
    reloads = math.ceil(spec.c_out / t.tile_n)
    if positions == 1:
        effective_positions = 1.0
    else:
        # First position pays full fill; the rest pay (1 - reuse).
        effective_positions = 1.0 + (positions - 1) * (1.0 - reuse_fraction)
    return int(per_position * effective_positions * reloads)
