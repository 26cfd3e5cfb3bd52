"""Tiling: SRAM-capacity blocking and the multi-tile merge optimization.

Two distinct tilings live here:

1. **Capacity tiling** (:func:`plan_row_tiles`): the lowered matrix's M
   dimension (``N*H_O*W_O``) is split into blocks so one block's IFMap slice
   plus the in-flight OFMap fits on chip.  Both hardware backends use it.

2. **Multi-tile merge** (Sec. IV-B, :class:`MultiTileGroup` /
   :func:`plan_multi_tile`): when ``C_I`` is smaller than the systolic array
   height, several decomposed filters are merged into one GEMM so the merged
   K dimension ``group_size * C_I`` fills the array.  The paper infers the
   TPU's policy as ``tiles = MIN(array/C_I, W_F)``; :func:`tpu_multi_tile_policy`
   implements it, and the cost of the merge — input duplication in the vector
   memory — is accounted by :meth:`MultiTileGroup.duplication_factor`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from .channel_first import DecomposedFilter, decompose, decomposed_tile_view
from .conv_spec import ConvSpec
from .reference import pad_ifmap

__all__ = [
    "RowTile",
    "plan_row_tiles",
    "MultiTileGroup",
    "tpu_multi_tile_policy",
    "plan_multi_tile",
    "merged_gemm_operands",
    "workspace_elements",
    "array_k_utilization",
]


# --------------------------------------------------------------- capacity tiling
@dataclasses.dataclass(frozen=True)
class RowTile:
    """A contiguous block of lowered-matrix rows (output pixels)."""

    row_start: int
    row_end: int  # exclusive

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    def __post_init__(self) -> None:
        if not (0 <= self.row_start < self.row_end):
            raise ValueError(f"bad row tile [{self.row_start}, {self.row_end})")


def plan_row_tiles(total_rows: int, max_rows_per_tile: int) -> List[RowTile]:
    """Split ``total_rows`` into blocks of at most ``max_rows_per_tile``."""
    if total_rows <= 0:
        raise ValueError(f"total_rows must be positive, got {total_rows}")
    if max_rows_per_tile <= 0:
        raise ValueError(f"max_rows_per_tile must be positive, got {max_rows_per_tile}")
    tiles = []
    for start in range(0, total_rows, max_rows_per_tile):
        tiles.append(RowTile(start, min(start + max_rows_per_tile, total_rows)))
    return tiles


# --------------------------------------------------------------- multi-tile merge
@dataclasses.dataclass(frozen=True)
class MultiTileGroup:
    """A group of decomposed filters executed as one merged GEMM.

    Merging ``g`` tiles turns ``g`` GEMMs of ``[M, C_I] x [C_I, C_O]`` into
    one ``[M, g*C_I] x [g*C_I, C_O]`` GEMM — correct because GEMM over a
    concatenated K axis equals the sum of the per-slice GEMMs (associativity,
    Sec. IV-B).  The price: each group stores its ``g`` (largely overlapping)
    IFMap tile slices separately on chip.
    """

    tiles: Tuple[DecomposedFilter, ...]
    spec: ConvSpec

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("multi-tile group must contain at least one tile")

    @property
    def group_size(self) -> int:
        return len(self.tiles)

    @property
    def merged_k(self) -> int:
        """K dimension of the merged GEMM: group_size * C_I."""
        return self.group_size * self.spec.c_in

    def input_elements(self) -> int:
        """On-chip IFMap elements this group occupies (with duplication)."""
        return self.group_size * self.spec.lowered_rows() * self.spec.c_in

    def duplication_factor(self) -> float:
        """On-chip elements stored / unique elements needed.

        For stride >= filter spacing the tiles are disjoint (factor 1);
        for the common stride-1 3x3 case a group of g tiles re-stores data
        roughly g times (Fig 11's "2x").
        """
        unique = self._unique_input_elements()
        return self.input_elements() / unique if unique else float(self.group_size)

    def _unique_input_elements(self) -> int:
        """Count distinct (padded) IFMap coordinates the group touches."""
        coords = set()
        h_span = (self.spec.h_out - 1) * self.spec.stride + 1
        w_span = (self.spec.w_out - 1) * self.spec.stride + 1
        for tile in self.tiles:
            y0 = tile.r * self.spec.dilation
            x0 = tile.s * self.spec.dilation
            for y in range(y0, y0 + h_span, self.spec.stride):
                for x in range(x0, x0 + w_span, self.spec.stride):
                    coords.add((y, x))
        return len(coords) * self.spec.n * self.spec.c_in


def tpu_multi_tile_policy(spec: ConvSpec, array_rows: int = 128) -> int:
    """The multi-tile count the paper infers the TPU uses (Fig 14b).

    ``tiles = MIN(array_rows / C_I, W_F)``: enough duplication to fill the
    array's K dimension, but never more groups than one filter row provides.
    Always at least 1.
    """
    if array_rows <= 0:
        raise ValueError(f"array_rows must be positive, got {array_rows}")
    by_array = max(1, array_rows // spec.c_in)
    return max(1, min(by_array, spec.w_filter))


def plan_multi_tile(
    spec: ConvSpec, group_size: int, row_aligned: bool = True
) -> List[MultiTileGroup]:
    """Partition the decomposed filters into groups of ``group_size``.

    With ``row_aligned=True`` (the TPU behaviour this reproduction infers),
    groups never span filter rows: merging within a row keeps the merged
    tile's vector-memory fill a set of simple W-shifted streams, and it is
    what makes the observed policy's ``W_F`` bound binding — merging more
    than ``W_F`` tiles would have to cross rows, so the hardware stops there
    (Fig 14).  ``row_aligned=False`` gives plain consecutive grouping.
    """
    if group_size <= 0:
        raise ValueError(f"group_size must be positive, got {group_size}")
    tiles = decompose(spec)
    groups = []
    if row_aligned:
        for r in range(spec.h_filter):
            row_tiles = tiles[r * spec.w_filter : (r + 1) * spec.w_filter]
            for start in range(0, len(row_tiles), group_size):
                groups.append(
                    MultiTileGroup(tiles=tuple(row_tiles[start : start + group_size]), spec=spec)
                )
    else:
        for start in range(0, len(tiles), group_size):
            groups.append(
                MultiTileGroup(tiles=tuple(tiles[start : start + group_size]), spec=spec)
            )
    return groups


def merged_gemm_operands(
    ifmap: np.ndarray, weights: np.ndarray, spec: ConvSpec, group: MultiTileGroup
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise the merged GEMM operands for one multi-tile group.

    Returns ``(A, B)`` with ``A`` of shape ``(M, g*C_I)`` and ``B`` of shape
    ``(g*C_I, C_O)`` such that ``A @ B`` is the group's OFMap contribution.
    Used by the functional simulators and the correctness tests; hardware
    would form A incrementally in the vector memories.
    """
    if ifmap.shape != spec.ifmap_shape:
        raise ValueError(f"ifmap shape {ifmap.shape} != spec {spec.ifmap_shape}")
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != spec {spec.filter_shape}")
    padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
    m = spec.lowered_rows()
    a_parts = []
    b_parts = []
    for tile in group.tiles:
        view = decomposed_tile_view(padded, spec, tile)
        a_parts.append(view.transpose(0, 2, 3, 1).reshape(m, spec.c_in))
        b_parts.append(weights[:, :, tile.r, tile.s].T.astype(np.float64))
    return np.concatenate(a_parts, axis=1), np.concatenate(b_parts, axis=0)


def workspace_elements(spec: ConvSpec, group_size: int) -> int:
    """Total on-chip IFMap workspace (elements) across all groups for a given
    multi-tile parameter — the linearly-growing quantity in Fig 14a."""
    groups = plan_multi_tile(spec, group_size)
    return max(g.input_elements() for g in groups)


def array_k_utilization(spec: ConvSpec, group_size: int, array_rows: int = 128) -> float:
    """Fraction of the systolic array's row (K) dimension a merged group
    fills: ``min(1, g*C_I / array_rows)`` — the quantity multi-tile exists to
    push toward 1."""
    if array_rows <= 0:
        raise ValueError(f"array_rows must be positive, got {array_rows}")
    merged_k = group_size * spec.c_in
    return min(1.0, merged_k / array_rows)
