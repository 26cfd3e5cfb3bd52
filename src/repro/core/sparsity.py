"""Position-structured sparsity through the channel-first decomposition.

The paper closes by hoping its algorithm "can encourage future study for
designing sparse CNN accelerators based on the described channel-first
implicit im2col" (Sec. VIII).  This module implements the most natural such
design: **filter-position sparsity**.  Because the channel-first algorithm
executes one GEMM per decomposed filter position, a position whose weights
are entirely zero can be *skipped outright* — no gather, no GEMM pass, no
accumulation — turning structured sparsity directly into proportional work
reduction with zero hardware support beyond the scheduler.

Contrast with the explicit/channel-last world, where the lowered matrix
interleaves positions along K and a zero position saves nothing without
dedicated sparse hardware (the SparTen/Bit-Tactical line of work the paper
cites).

Provided here:

- :class:`PositionMask` — which of the ``H_F*W_F`` positions survive;
- :func:`prune_positions` — magnitude-based position pruning of a weight
  tensor (keep the top-k positions by L2 norm);
- :func:`conv2d_channel_first_sparse` — the sparse forward pass, exact
  w.r.t. the masked weights;
- :func:`sparse_schedule_speedup` helpers used by the sparsity experiment.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from .channel_first import DecomposedFilter, decompose
from .conv_spec import ConvSpec
from .reference import direct_conv2d, pad_ifmap

__all__ = [
    "PositionMask",
    "prune_positions",
    "conv2d_channel_first_sparse",
    "apply_mask_to_weights",
]


@dataclasses.dataclass(frozen=True)
class PositionMask:
    """A keep-set over the decomposed filter positions."""

    spec: ConvSpec
    kept: Tuple[int, ...]  # sorted position indices that survive

    def __post_init__(self) -> None:
        if not self.kept:
            raise ValueError("a position mask must keep at least one position")
        if sorted(set(self.kept)) != list(self.kept):
            raise ValueError("kept indices must be sorted and unique")
        if self.kept[0] < 0 or self.kept[-1] >= self.spec.positions:
            raise ValueError(
                f"kept indices out of range for {self.spec.positions} positions"
            )

    @property
    def density(self) -> float:
        return len(self.kept) / self.spec.positions

    def kept_tiles(self) -> Sequence[DecomposedFilter]:
        tiles = decompose(self.spec)
        return [tiles[i] for i in self.kept]

    def keeps(self, index: int) -> bool:
        return index in self.kept


def prune_positions(
    weights: np.ndarray, spec: ConvSpec, keep: int
) -> Tuple[np.ndarray, PositionMask]:
    """Keep the ``keep`` filter positions with the largest L2 norms.

    Returns the pruned weights (zeros at dropped positions) and the mask.
    The centre-heavy norm distribution of trained CNNs makes this the
    standard structured-pruning baseline.  Positions are ranked by their
    squared norms, accumulated in float64 without a float64 copy of the
    weights; for integer-valued weights the sums are exact, so the ranking
    is the one the norms give.
    """
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != {spec.filter_shape}")
    if not (1 <= keep <= spec.positions):
        raise ValueError(f"keep must be in [1, {spec.positions}], got {keep}")
    rows = weights.reshape(spec.c_out * spec.c_in, spec.positions)
    squares = np.einsum("ij,ij->j", rows, rows, dtype=np.float64)
    kept = tuple(sorted(np.argsort(squares)[-keep:].tolist()))
    mask = PositionMask(spec=spec, kept=kept)
    return apply_mask_to_weights(weights, mask), mask


def apply_mask_to_weights(weights: np.ndarray, mask: PositionMask) -> np.ndarray:
    """Zero the dropped positions (returns a copy)."""
    spec = mask.spec
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != {spec.filter_shape}")
    pruned = weights.copy()
    for tile in decompose(spec):
        if not mask.keeps(tile.index):
            pruned[:, :, tile.r, tile.s] = 0
    return pruned


def conv2d_channel_first_sparse(
    ifmap: np.ndarray,
    weights: np.ndarray,
    spec: ConvSpec,
    mask: PositionMask,
) -> np.ndarray:
    """The sparse forward pass: only the kept positions' GEMMs run.

    Exact w.r.t. the *masked* weights: equals
    ``direct_conv2d(ifmap, apply_mask_to_weights(weights, mask), spec)``
    (a test pins this), while executing ``density`` of the dense work.
    """
    if ifmap.shape != spec.ifmap_shape:
        raise ValueError(f"ifmap shape {ifmap.shape} != {spec.ifmap_shape}")
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != {spec.filter_shape}")
    if mask.spec != spec:
        raise ValueError("mask was built for a different spec")
    padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
    m = spec.lowered_rows()
    accumulator = np.zeros((m, spec.c_out))
    h_span = (spec.h_out - 1) * spec.stride + 1
    w_span = (spec.w_out - 1) * spec.stride + 1
    for tile in mask.kept_tiles():
        y0 = tile.r * spec.dilation
        x0 = tile.s * spec.dilation
        view = padded[:, :, y0 : y0 + h_span : spec.stride, x0 : x0 + w_span : spec.stride]
        a_matrix = view.transpose(0, 2, 3, 1).reshape(m, spec.c_in)
        b_matrix = weights[:, :, tile.r, tile.s].T.astype(np.float64)
        accumulator += a_matrix @ b_matrix
    return np.ascontiguousarray(
        accumulator.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
    )
