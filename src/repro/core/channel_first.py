"""The implicit channel-first im2col algorithm, as a pure algorithm.

This is the paper's core contribution (Sec. III) stripped of any hardware:
a convolution is executed as ``H_F * W_F`` accumulating 1x1 convolutions —
one per *decomposed filter* position ``(r, s)`` — where each 1x1 convolution
is a ``[N*H_O*W_O, C_I] x [C_I, C_O]`` GEMM whose A-operand is a **view**
(never a copy) of the IFMap.

Key properties, each of which the hardware backends rely on and the tests
pin down:

- *Zero memory overhead*: :func:`decomposed_tile_view` returns a strided view
  into the (padded) IFMap; nothing the size of the lowered matrix ever exists.
- *Order freedom*: the decomposed filters may be visited in any order
  (accumulation is commutative/associative); :func:`conv2d_channel_first`
  accepts an explicit visit order, which is what the inter-tile-reuse
  reordering (Sec. V) exploits.
- *Stride/dilation come for free*: a decomposed tile under stride ``s`` is
  just a coarser strided view — its size shrinks with stride, which is the
  entire reason the algorithm is stride-insensitive (Fig 8b).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .conv_spec import ConvSpec
from .reference import pad_ifmap

__all__ = [
    "DecomposedFilter",
    "decompose",
    "decomposed_tile_view",
    "decomposed_weight_slice",
    "conv2d_channel_first",
]


@dataclasses.dataclass(frozen=True)
class DecomposedFilter:
    """One ``(r, s)`` position of the filter: a 1x1 CONV over all channels.

    ``index`` is the row-major position index ``r * W_F + s``; it doubles as
    the tile id ``<r+1, s+1>`` in the paper's figures (their indices are
    1-based).
    """

    r: int
    s: int
    index: int


def decompose(spec: ConvSpec) -> List[DecomposedFilter]:
    """All decomposed filters of ``spec``, in row-major (naive) order."""
    return [
        DecomposedFilter(r=r, s=s, index=r * spec.w_filter + s)
        for r, s in spec.filter_positions()
    ]


def decomposed_tile_view(
    padded_ifmap: np.ndarray, spec: ConvSpec, tile: DecomposedFilter
) -> np.ndarray:
    """Strided **view** of the taps read by one decomposed filter.

    ``padded_ifmap`` must be the NCHW IFMap already padded by
    ``spec.padding`` (use :func:`repro.core.reference.pad_ifmap`).  The result
    has shape ``(N, C_I, H_O, W_O)`` and shares memory with the input —
    ``result.base`` is the padded IFMap.  This view *is* the implicit lowered
    tile: reshaping it to ``(N*H_O*W_O, C_I)`` gives the A-operand of the
    decomposed GEMM without any data movement.
    """
    expected_h = spec.h_in + 2 * spec.padding
    expected_w = spec.w_in + 2 * spec.padding
    if padded_ifmap.shape != (spec.n, spec.c_in, expected_h, expected_w):
        raise ValueError(
            f"padded ifmap shape {padded_ifmap.shape} != expected "
            f"{(spec.n, spec.c_in, expected_h, expected_w)}"
        )
    y0 = tile.r * spec.dilation
    x0 = tile.s * spec.dilation
    h_span = (spec.h_out - 1) * spec.stride + 1
    w_span = (spec.w_out - 1) * spec.stride + 1
    return padded_ifmap[:, :, y0 : y0 + h_span : spec.stride, x0 : x0 + w_span : spec.stride]


def decomposed_weight_slice(
    weights: np.ndarray, spec: ConvSpec, tile: DecomposedFilter
) -> np.ndarray:
    """The ``(C_I, C_O)`` weight matrix of one decomposed 1x1 filter."""
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != spec {spec.filter_shape}")
    return weights[:, :, tile.r, tile.s].T  # (C_O, C_I) -> (C_I, C_O)


def conv2d_channel_first(
    ifmap: np.ndarray,
    weights: np.ndarray,
    spec: ConvSpec,
    order: Optional[Sequence[DecomposedFilter]] = None,
) -> np.ndarray:
    """Execute a convolution via the channel-first decomposition.

    Iterates decomposed filters (in ``order`` if given, else row-major),
    performing one ``[M, C_I] x [C_I, C_O]`` GEMM per filter position and
    accumulating into the OFMap.  Returns the NCHW OFMap in float64.

    This function is the *executable specification* the simulators are tested
    against; its result is bit-identical to
    :func:`repro.core.reference.direct_conv2d` because both accumulate the
    same partial products in float64 (order differences are exercised by the
    property tests and shown to be exact for integer-valued inputs).
    """
    if ifmap.shape != spec.ifmap_shape:
        raise ValueError(f"ifmap shape {ifmap.shape} != spec {spec.ifmap_shape}")
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != spec {spec.filter_shape}")
    tiles = list(order) if order is not None else decompose(spec)
    _validate_order(tiles, spec)

    padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
    m = spec.lowered_rows()
    accumulator = np.zeros((m, spec.c_out), dtype=np.float64)
    for tile in tiles:
        a_view = decomposed_tile_view(padded, spec, tile)
        # (N, C, HO, WO) -> (N, HO, WO, C) -> (M, C_I): the only copy made is
        # this M x C_I staging (the on-chip tile in hardware terms).
        a_matrix = a_view.transpose(0, 2, 3, 1).reshape(m, spec.c_in)
        b_matrix = decomposed_weight_slice(weights, spec, tile).astype(np.float64)
        accumulator += a_matrix @ b_matrix
    return np.ascontiguousarray(
        accumulator.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
    )


def _validate_order(tiles: Iterable[DecomposedFilter], spec: ConvSpec) -> None:
    indices = sorted(t.index for t in tiles)
    if indices != list(range(spec.positions)):
        raise ValueError(
            f"tile order must visit each of {spec.positions} decomposed filters "
            f"exactly once, got indices {indices}"
        )
    for tile in tiles:
        if tile.index != tile.r * spec.w_filter + tile.s:
            raise ValueError(f"inconsistent tile {tile}")
        if not (0 <= tile.r < spec.h_filter and 0 <= tile.s < spec.w_filter):
            raise ValueError(f"tile {tile} out of range for {spec.filter_shape}")
