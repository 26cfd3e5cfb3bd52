"""Inter-tile reuse analysis and decomposed-filter reordering (Sec. V).

Consecutive decomposed filters whose IFMap working sets overlap let a GPU
thread block keep most of its shared-memory tile across tiles, shrinking the
fill latency.  The paper observes that under stride > 1 the *naive* row-major
visit order has no overlap between consecutive tiles, while a reordering
that steps by the stride does — e.g. for a 3x3 filter at stride 2, visiting
``<1,1>, <1,3>, <1,2>`` makes ``<1,1> -> <1,3>`` share most of their columns
(their taps differ by exactly one stride step), and quotes 96% overlap at
a 99x99 IFMap.

This module computes exact pairwise working-set overlaps and produces a
greedy max-overlap visit order.  The GPU backend turns the overlap fraction
of each consecutive pair directly into saved shared-memory fill traffic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .channel_first import DecomposedFilter, decompose
from .conv_spec import ConvSpec

__all__ = [
    "tile_working_set",
    "overlap_fraction",
    "pairwise_overlap",
    "greedy_reuse_order",
    "order_reuse_fraction",
]


def tile_working_set(spec: ConvSpec, tile: DecomposedFilter) -> Set[Tuple[int, int]]:
    """Padded-IFMap spatial coordinates read by one decomposed filter.

    Channels and batch multiply every coordinate identically, so spatial
    coordinates alone determine overlap fractions.
    """
    coords = set()
    y0 = tile.r * spec.dilation
    x0 = tile.s * spec.dilation
    for oy in range(spec.h_out):
        for ox in range(spec.w_out):
            coords.add((y0 + oy * spec.stride, x0 + ox * spec.stride))
    return coords


def _axis_shared(delta: int, stride: int, out_extent: int) -> int:
    # Tap positions along one axis: {origin + i*stride}.  Shifted lattices
    # intersect only if delta is a multiple of stride; then the overlap is
    # out_extent - |delta|/stride grid points (clamped at 0).
    if delta % stride != 0:
        return 0
    return max(0, out_extent - abs(delta) // stride)


def overlap_fraction(spec: ConvSpec, a: DecomposedFilter, b: DecomposedFilter) -> float:
    """|WS(a) ∩ WS(b)| / |WS(a)| — fraction of a's working set reusable when
    b was the previous tile (working sets are equal-sized, so symmetric).

    Computed in closed form: two decomposed filters' tap grids are the same
    lattice shifted by ``(dr*dilation, ds*dilation)``; taps coincide exactly
    where the shift is a multiple of the stride and the grids overlap.
    """
    rows = _axis_shared((b.r - a.r) * spec.dilation, spec.stride, spec.h_out)
    cols = _axis_shared((b.s - a.s) * spec.dilation, spec.stride, spec.w_out)
    return rows * cols / (spec.h_out * spec.w_out)


def pairwise_overlap(spec: ConvSpec) -> Dict[Tuple[int, int], float]:
    """Overlap fraction for every ordered pair of decomposed-filter indices."""
    tiles = decompose(spec)
    table = {}
    for a in tiles:
        for b in tiles:
            if a.index != b.index:
                table[(a.index, b.index)] = overlap_fraction(spec, a, b)
    return table


def greedy_reuse_order(spec: ConvSpec) -> List[DecomposedFilter]:
    """Visit order maximising consecutive working-set overlap, greedily.

    Starts at tile ``<1,1>`` and repeatedly moves to the unvisited tile with
    the largest overlap with the current one (ties broken by the lowest
    index, keeping the order deterministic).  A candidate's overlap is read
    as the product of two per-axis shared-tap tables built once per spec:
    the numerator of :func:`overlap_fraction`, whose denominator is the same
    for every candidate.  The paper leaves optimal reordering to future
    work; greedy already captures the win it reports (Fig 18b).
    """

    def shared_taps(taps: int, out_extent: int) -> List[List[int]]:
        return [
            [_axis_shared((j - i) * spec.dilation, spec.stride, out_extent)
             for j in range(taps)]
            for i in range(taps)
        ]

    rows = shared_taps(spec.h_filter, spec.h_out)
    cols = shared_taps(spec.w_filter, spec.w_out)
    remaining = decompose(spec)  # ascending index: max() keeps the lowest
    order = [remaining.pop(0)]
    while remaining:
        row, col = rows[order[-1].r], cols[order[-1].s]
        best = max(
            range(len(remaining)),
            key=lambda i: row[remaining[i].r] * col[remaining[i].s],
        )
        order.append(remaining.pop(best))
    return order


def order_reuse_fraction(spec: ConvSpec, order: Sequence[DecomposedFilter]) -> float:
    """Average fraction of each tile's working set already on chip when it
    runs, given the previous tile in ``order`` (first tile scores 0).

    This is the quantity the GPU shared-memory fill model multiplies traffic
    by: a value f means consecutive fills move only (1-f) of a full tile on
    average.
    """
    if not order:
        raise ValueError("order must be non-empty")
    if len(order) == 1:
        return 0.0
    total = 0.0
    for prev, cur in zip(order, order[1:]):
        total += overlap_fraction(spec, cur, prev)
    return total / len(order)
