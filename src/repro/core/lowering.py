"""Explicit im2col lowering in both column orders.

This module materialises the lowered IFMap matrix — the thing the implicit
algorithms avoid materialising — in the two orders the paper contrasts
(Fig 6):

- **channel-last** (classical): the ``H_F*W_F*C_I`` axis is expanded
  ``C_I -> H_F -> W_F``, i.e. all taps of one sliding window are stored
  together, channel-major.  Column index = ``(c * H_F + r) * W_F + s``.
- **channel-first** (the paper's reordering): expanded ``H_F -> W_F -> C_I``,
  i.e. elements of the same filter position across channels are adjacent.
  Column index = ``(r * W_F + s) * C_I + c``.

The two differ only by a column permutation; :func:`column_permutation`
exposes it, and the tests assert that permuting one lowering yields the
other and that GEMM against correspondingly-reordered filters is invariant —
the paper's correctness argument, executed.

Also here: ``col2im`` (scatter-add inverse, needed for gradient-style checks),
filter flattening in both orders, and the Table I memory accounting.
"""

from __future__ import annotations

import enum

import numpy as np

from .conv_spec import ConvSpec
from .reference import pad_ifmap

__all__ = [
    "ColumnOrder",
    "im2col",
    "col2im",
    "flatten_filters",
    "unflatten_filters",
    "column_permutation",
    "ofmap_from_gemm",
    "lowered_matrix_mb",
    "ifmap_mb",
]


class ColumnOrder(enum.Enum):
    """Order in which the ``H_F*W_F*C_I`` lowered axis is expanded."""

    CHANNEL_LAST = "channel_last"  # C_I -> H_F -> W_F (classical im2col)
    CHANNEL_FIRST = "channel_first"  # H_F -> W_F -> C_I (the paper)

    def column_index(self, spec: ConvSpec, c: int, r: int, s: int) -> int:
        """Lowered-matrix column index of tap ``(channel c, position r, s)``."""
        if self is ColumnOrder.CHANNEL_LAST:
            return (c * spec.h_filter + r) * spec.w_filter + s
        return (r * spec.w_filter + s) * spec.c_in + c


def _window_taps(padded: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Gather all taps as a 6-D array ``(N, C_I, H_F, W_F, H_O, W_O)``."""
    n, c_in = padded.shape[0], padded.shape[1]
    taps = np.empty(
        (n, c_in, spec.h_filter, spec.w_filter, spec.h_out, spec.w_out),
        dtype=padded.dtype,
    )
    h_span = (spec.h_out - 1) * spec.stride + 1
    w_span = (spec.w_out - 1) * spec.stride + 1
    for r in range(spec.h_filter):
        for s in range(spec.w_filter):
            y0 = r * spec.dilation
            x0 = s * spec.dilation
            taps[:, :, r, s] = padded[
                :, :, y0 : y0 + h_span : spec.stride, x0 : x0 + w_span : spec.stride
            ]
    return taps


def im2col(ifmap: np.ndarray, spec: ConvSpec, order: ColumnOrder) -> np.ndarray:
    """Explicitly lower an NCHW IFMap to the ``(N*H_O*W_O, H_F*W_F*C_I)`` matrix.

    Row index is ``(n * H_O + oy) * W_O + ox``; column order is chosen by
    ``order``.  Padding is materialised as zeros, matching what a GEMM engine
    would consume.
    """
    if ifmap.shape != spec.ifmap_shape:
        raise ValueError(f"ifmap shape {ifmap.shape} != spec {spec.ifmap_shape}")
    taps = _window_taps(pad_ifmap(ifmap, spec.padding), spec)
    if order is ColumnOrder.CHANNEL_LAST:
        # (N, HO, WO, C, HF, WF) -> rows x (C*HF*WF)
        arranged = taps.transpose(0, 4, 5, 1, 2, 3)
    else:
        # (N, HO, WO, HF, WF, C) -> rows x (HF*WF*C)
        arranged = taps.transpose(0, 4, 5, 2, 3, 1)
    return np.ascontiguousarray(arranged.reshape(spec.lowered_rows(), spec.lowered_cols()))


def col2im(lowered: np.ndarray, spec: ConvSpec, order: ColumnOrder) -> np.ndarray:
    """Scatter-add inverse of :func:`im2col`.

    Overlapping receptive fields accumulate, so ``col2im(im2col(x))`` equals
    ``x`` scaled per-element by the number of windows covering it — the usual
    convention (this is the adjoint, not an inverse).  Padding regions are
    accumulated then discarded.
    """
    expected = (spec.lowered_rows(), spec.lowered_cols())
    if lowered.shape != expected:
        raise ValueError(f"lowered shape {lowered.shape} != expected {expected}")
    h_pad = spec.h_in + 2 * spec.padding
    w_pad = spec.w_in + 2 * spec.padding
    padded = np.zeros((spec.n, spec.c_in, h_pad, w_pad), dtype=np.float64)
    if order is ColumnOrder.CHANNEL_LAST:
        taps = lowered.reshape(
            spec.n, spec.h_out, spec.w_out, spec.c_in, spec.h_filter, spec.w_filter
        ).transpose(0, 3, 4, 5, 1, 2)
    else:
        taps = lowered.reshape(
            spec.n, spec.h_out, spec.w_out, spec.h_filter, spec.w_filter, spec.c_in
        ).transpose(0, 5, 3, 4, 1, 2)
    h_span = (spec.h_out - 1) * spec.stride + 1
    w_span = (spec.w_out - 1) * spec.stride + 1
    for r in range(spec.h_filter):
        for s in range(spec.w_filter):
            y0 = r * spec.dilation
            x0 = s * spec.dilation
            padded[:, :, y0 : y0 + h_span : spec.stride, x0 : x0 + w_span : spec.stride] += taps[
                :, :, r, s
            ]
    if spec.padding:
        return padded[:, :, spec.padding : -spec.padding, spec.padding : -spec.padding]
    return padded


def flatten_filters(weights: np.ndarray, spec: ConvSpec, order: ColumnOrder) -> np.ndarray:
    """Flatten (C_O, C_I, H_F, W_F) weights to the ``(H_F*W_F*C_I, C_O)`` GEMM
    operand, with rows in the same order as the lowered matrix's columns."""
    if weights.shape != spec.filter_shape:
        raise ValueError(f"weights shape {weights.shape} != spec {spec.filter_shape}")
    if order is ColumnOrder.CHANNEL_LAST:
        arranged = weights.transpose(1, 2, 3, 0)  # (C, HF, WF, CO)
    else:
        arranged = weights.transpose(2, 3, 1, 0)  # (HF, WF, C, CO)
    return np.ascontiguousarray(arranged.reshape(spec.lowered_cols(), spec.c_out))


def unflatten_filters(flat: np.ndarray, spec: ConvSpec, order: ColumnOrder) -> np.ndarray:
    """Inverse of :func:`flatten_filters`."""
    expected = (spec.lowered_cols(), spec.c_out)
    if flat.shape != expected:
        raise ValueError(f"flat shape {flat.shape} != expected {expected}")
    if order is ColumnOrder.CHANNEL_LAST:
        arranged = flat.reshape(spec.c_in, spec.h_filter, spec.w_filter, spec.c_out)
        return np.ascontiguousarray(arranged.transpose(3, 0, 1, 2))
    arranged = flat.reshape(spec.h_filter, spec.w_filter, spec.c_in, spec.c_out)
    return np.ascontiguousarray(arranged.transpose(3, 2, 0, 1))


def column_permutation(spec: ConvSpec) -> np.ndarray:
    """Permutation ``p`` with ``channel_first[:, j] == channel_last[:, p[j]]``.

    Applying ``p`` to the channel-last lowered matrix's columns (and to the
    flattened filters' rows) yields the channel-first operands; GEMM results
    are identical — the formal content of Sec. III-A's "General Principle".
    """
    perm = np.empty(spec.lowered_cols(), dtype=np.int64)
    for r in range(spec.h_filter):
        for s in range(spec.w_filter):
            for c in range(spec.c_in):
                cf = ColumnOrder.CHANNEL_FIRST.column_index(spec, c, r, s)
                cl = ColumnOrder.CHANNEL_LAST.column_index(spec, c, r, s)
                perm[cf] = cl
    return perm


def ofmap_from_gemm(result: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Reshape the ``(N*H_O*W_O, C_O)`` GEMM result to the NCHW OFMap."""
    expected = (spec.lowered_rows(), spec.c_out)
    if result.shape != expected:
        raise ValueError(f"result shape {result.shape} != expected {expected}")
    return np.ascontiguousarray(
        result.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
    )


# ------------------------------------------------------------------ Table I
def ifmap_mb(spec: ConvSpec, elem_bytes: int = 2) -> float:
    """IFMap size in MB — Table I's first row, per layer."""
    return spec.ifmap_bytes(elem_bytes) / (1024.0 * 1024.0)


def lowered_matrix_mb(spec: ConvSpec, elem_bytes: int = 2) -> float:
    """Lowered-IFMap size in MB — Table I's second row, per layer."""
    return spec.lowered_bytes(elem_bytes) / (1024.0 * 1024.0)
