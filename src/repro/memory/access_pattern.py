"""DRAM access-pattern generation for IFMap tile fills (Fig 7).

Filling the on-chip SRAM with one channel-first tile means reading, for every
output pixel of the tile, the taps of one decomposed filter across all
channels (and batch).  The *logical* read set is layout-independent; the
*physical* address sequence — and hence the DRAM efficiency — depends
entirely on whether the IFMap lives in DRAM as CHW or HWC:

- **HWC/NHWC**: the ``C_I`` channels of one pixel are adjacent, and for
  stride 1 whole pixel rows of the tile are contiguous — long runs.
- **CHW/NCHW**: each channel contributes its own short (or unit, under
  stride > 1) runs — many fragmented accesses.

:func:`tile_fill_addresses` emits the exact byte-address trace a DMA engine
issues for one decomposed-filter tile fill; :func:`fill_stats` collapses it
to :class:`~repro.memory.dram.TransferStats`, and
:func:`compare_layout_fill` prices both layouts through the same
:class:`~repro.memory.dram.HBMModel` — the complete Fig 7 pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..core.channel_first import DecomposedFilter
from ..core.conv_spec import ConvSpec
from ..core.layouts import Layout
from ..trace import tracer as trace
from .dram import HBMModel, TransferStats, run_length_stats

__all__ = [
    "tile_fill_addresses",
    "fill_stats",
    "LayoutFillResult",
    "compare_layout_fill",
]


def _element_strides(layout: Layout, shape_nchw) -> Dict[str, int]:
    """Per-axis element strides of a tensor laid out per ``layout``.

    ``flatten_index`` computed as a Horner scheme is exactly
    ``n*sN + c*sC + h*sH + w*sW`` with these strides.
    """
    extents = dict(zip("NCHW", shape_nchw))
    strides: Dict[str, int] = {}
    acc = 1
    for axis in reversed(layout.value):
        strides[axis] = acc
        acc *= extents[axis]
    return strides


def tile_fill_addresses(
    spec: ConvSpec,
    tile: DecomposedFilter,
    layout: Layout,
    elem_bytes: int = 2,
    max_rows: int = None,
) -> np.ndarray:
    """Byte addresses read from DRAM to fill one decomposed tile.

    Visits output pixels in raster order and, for each, all channels of the
    tap — the fill order of the HWC(N) on-chip layout.  Under ``NHWC`` this
    emits the channel group as one access at its base address with
    ``C_I * elem_bytes`` granularity handled by the caller via
    :func:`fill_stats`; to keep the trace exact we emit one address per
    element for every layout.  Taps that fall in the zero-padding halo issue
    no DRAM traffic.  ``max_rows`` caps the number of output rows traced
    (address traces are O(tile size); experiments trace a representative
    slice and scale).

    The trace is generated with integer array arithmetic (the address of
    ``(n, c, y, x)`` is a dot product with the layout's element strides) and
    returned as an ``int64`` array in exactly the raster-then-channels order
    of the element-by-element walk.
    """
    rows = spec.h_out if max_rows is None else min(max_rows, spec.h_out)
    y0, x0 = spec.tap_coordinate(0, 0, tile.r, tile.s)
    y = y0 + np.arange(rows, dtype=np.int64) * spec.stride
    x = x0 + np.arange(spec.w_out, dtype=np.int64) * spec.stride
    valid = ((y >= 0) & (y < spec.h_in))[:, None] & ((x >= 0) & (x < spec.w_in))[None, :]
    strides = _element_strides(layout, spec.ifmap_shape)
    batch = np.arange(spec.n, dtype=np.int64) * strides["N"]
    # (N, rows, W_O) base element offsets, masked to in-bounds taps in
    # C-order = (batch, raster) order — the loop nest's visit order.
    base = batch[:, None, None] + (y * strides["H"])[None, :, None] + (x * strides["W"])[None, None, :]
    taps = base[np.broadcast_to(valid[None, :, :], base.shape)]
    channels = np.arange(spec.c_in, dtype=np.int64) * strides["C"]
    return ((taps[:, None] + channels[None, :]) * elem_bytes).ravel()


def fill_stats(
    spec: ConvSpec,
    tile: DecomposedFilter,
    layout: Layout,
    elem_bytes: int = 2,
    max_rows: int = None,
) -> TransferStats:
    """Run-length statistics for one decomposed-tile fill.

    Addresses are sorted before coalescing, modelling a DMA engine that
    issues the tile's requests in address order (the standard optimisation;
    without it CHW would look even worse).
    """
    addresses = np.sort(
        tile_fill_addresses(spec, tile, layout, elem_bytes, max_rows=max_rows)
    )
    return run_length_stats(addresses, elem_bytes)


@dataclasses.dataclass(frozen=True)
class LayoutFillResult:
    """Fill cost of one tile under one DRAM layout."""

    layout: Layout
    stats: TransferStats
    cycles: float
    effective_bandwidth_gbps: float

    @property
    def mean_run_bytes(self) -> float:
        return self.stats.mean_run_bytes


def compare_layout_fill(
    spec: ConvSpec,
    tile: DecomposedFilter,
    hbm: HBMModel,
    elem_bytes: int = 2,
    layouts=(Layout.NHWC, Layout.NCHW),
    max_rows: int = None,
) -> Dict[Layout, LayoutFillResult]:
    """Price the same tile fill under several DRAM layouts (Fig 7)."""
    results = {}
    with trace.span(
        "memory.layout_fill", layer=spec.describe(), tap=f"r{tile.r}s{tile.s}"
    ):
        for layout in layouts:
            stats = fill_stats(spec, tile, layout, elem_bytes, max_rows=max_rows)
            results[layout] = LayoutFillResult(
                layout=layout,
                stats=stats,
                cycles=hbm.transfer_cycles(stats),
                effective_bandwidth_gbps=hbm.effective_bandwidth_gbps(stats),
            )
    return results


def analytic_fill_stats(
    spec: ConvSpec, layout: Layout, elem_bytes: int = 2
) -> TransferStats:
    """Closed-form fill statistics for one decomposed-tile fill, ignoring
    padding halos: the reference the traced :func:`fill_stats` is tested
    against (no pricing path calls it).

    HWC: each output row of the tile reads ``W_O`` taps x ``C_I`` channels;
    at stride 1 the whole row is one run of ``W_O*C_I`` elements, at stride
    s > 1 each tap's channel group is its own ``C_I``-element run.
    CHW: runs never span channels; at stride 1 a run is ``W_O`` elements,
    at stride s > 1 a single element.
    """
    taps = spec.n * spec.h_out * spec.w_out
    total_elems = taps * spec.c_in
    if layout in (Layout.NHWC, Layout.HWCN):
        if spec.stride == 1 and spec.dilation == 1:
            runs = spec.n * spec.h_out  # one run per tile row
        else:
            runs = taps  # one C_I-wide run per tap
    elif layout in (Layout.NCHW, Layout.CHWN):
        if spec.stride == 1 and spec.dilation == 1:
            runs = spec.n * spec.c_in * spec.h_out
        else:
            runs = total_elems
    else:
        raise ValueError(f"unsupported layout {layout}")
    return TransferStats(bytes=total_elems * elem_bytes, runs=runs)
