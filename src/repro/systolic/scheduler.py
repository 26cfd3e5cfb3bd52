"""Tile scheduling: turning conv/GEMM problems into timed work items.

A *work item* is one stationary-weight tile's worth of array work plus the
DMA it depends on.  The scheduler builds the item sequence for:

- :func:`channel_first_schedule` — the paper's algorithm on the TPU
  (Sec. IV): decomposed filters merged per the multi-tile policy, IFMap
  blocks sized to the vector-memory budget, HWC fills.
- :func:`gemm_schedule` — the plain GEMM primitive (used for Fig 13a
  validation and as the "GEMM-only" reference series in Fig 4).

The overlap model (:func:`execute_schedule`) is a two-resource pipeline —
one DMA engine, one systolic array — with double buffering: item ``i+1``'s
fill overlaps item ``i``'s compute; OFMap drains queue behind fills.  Per
tile this reduces to the paper's ``max(GEMM latency, SRAM fill latency)``
picture (Figs 3 and 8b) while also exposing the first fill and final drain.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.tiling import plan_multi_tile, tpu_multi_tile_policy
from ..trace import tracer as trace
from .config import TPUConfig
from .dma import FillEngine
from .systolic_array import gemm_tile_cycles

__all__ = [
    "WorkItem",
    "ScheduleResult",
    "channel_first_schedule",
    "gemm_schedule",
    "execute_schedule",
    "ifmap_rows_per_block",
    "tile_occupancy_cycles",
]


def tile_occupancy_cycles(
    rows: int, k_t: int, n_t: int, config: TPUConfig, first: bool
) -> float:
    """Array cycles one stationary tile occupies within a schedule.

    With the weight FIFO (``weight_double_buffer``), the next tile's weights
    shift in behind the current tile's streaming, so occupancy is
    ``max(stream, weight_load) + setup``, and the systolic fill/drain skew is
    exposed only on the first tile of the schedule (later tiles' fills hide
    under their predecessors' drains).  Without it, every tile pays the full
    serial breakdown from :func:`gemm_tile_cycles`.
    """
    tile = gemm_tile_cycles(rows, k_t, n_t, config)
    if not config.weight_double_buffer:
        return tile.total
    occupancy = max(tile.stream, tile.weight_load) + tile.setup
    if first:
        occupancy += tile.pipeline
    return occupancy


@dataclasses.dataclass(frozen=True)
class WorkItem:
    """One array occupancy with its upstream fill and downstream drain.

    ``fill_cycles`` covers whatever DMA must complete before this tile can
    stream (input block and/or stationary weights); ``drain_cycles`` is DMA
    work enqueued after it (OFMap writeback), overlappable with later items.
    """

    label: str
    gemm_cycles: float
    fill_cycles: float
    drain_cycles: float = 0.0
    macs: int = 0

    def __post_init__(self) -> None:
        if self.gemm_cycles < 0 or self.fill_cycles < 0 or self.drain_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


@dataclasses.dataclass(frozen=True)
class ScheduleResult:
    """Outcome of executing a schedule on the two-resource pipeline."""

    total_cycles: float
    compute_cycles: float
    dma_cycles: float
    exposed_dma_cycles: float
    items: int
    macs: int


def execute_schedule(items: List[WorkItem], arrays: int = 1) -> ScheduleResult:
    """Run items through the DMA/array pipeline with double buffering.

    Fills occupy the read channel, drains the write channel — HBM moves both
    directions concurrently, so OFMap writeback never delays the next tile's
    fill (this mirrors the vector memories' read/write interleaving in
    Sec. IV-A).  Compute item ``i`` starts once its fill has landed and its
    array is free.  With ``arrays`` MXUs the items round-robin over them
    (item ``i`` on array ``i % arrays``), all sharing the two DMA channels.

    This scalar fold is the oracle the schedule engine
    (:mod:`repro.perf.batch`) is gated against, bit for bit.
    """
    if trace.enabled():
        trace.counter("schedule.reference_executions", 1, cat="schedule")
        trace.counter("schedule.reference_items", len(items), cat="schedule")
    read_free = 0.0
    write_free = 0.0
    compute_free = [0.0] * arrays
    compute_busy = 0.0
    dma_busy = 0.0
    macs = 0
    for i, item in enumerate(items):
        engine = i % arrays
        read_free += item.fill_cycles
        dma_busy += item.fill_cycles
        start = max(compute_free[engine], read_free)
        compute_free[engine] = start + item.gemm_cycles
        compute_busy += item.gemm_cycles
        if item.drain_cycles:
            # The drain cannot start before its data exists.
            write_free = max(write_free, compute_free[engine]) + item.drain_cycles
            dma_busy += item.drain_cycles
        macs += item.macs
    total = max(max(compute_free), read_free, write_free)
    return ScheduleResult(
        total_cycles=total,
        compute_cycles=compute_busy,
        dma_cycles=dma_busy,
        exposed_dma_cycles=max(0.0, total - compute_busy / arrays),
        items=len(items),
        macs=macs,
    )


#: Minimum number of IFMap blocks a layer is split into so fills, compute
#: and drains pipeline (the array consumes rows as the DMA stages them; a
#: single monolithic block would serialise fill -> GEMM -> drain).
MIN_PIPELINE_BLOCKS = 16

#: Smallest block worth scheduling (finer granularity only adds setup).
MIN_BLOCK_ROWS = 1024


def ifmap_rows_per_block(spec: ConvSpec, config: TPUConfig, group_size: int) -> int:
    """Output rows (of the lowered matrix) per scheduled IFMap block.

    Bounded above by the IFMap share of the vector memories (half the
    unified SRAM for double-buffering; the rest holds OFMap and in-flight
    weights) and below by pipelining: even when the whole layer fits on
    chip, the schedule streams it in at least :data:`MIN_PIPELINE_BLOCKS`
    pieces so DMA and compute overlap.
    """
    budget = config.unified_sram_bytes // 4  # one of two IFMap buffers
    per_row = spec.c_in * group_size * config.compute_elem_bytes
    capacity_rows = max(1, budget // per_row)
    total = spec.lowered_rows()
    pipeline_rows = max(MIN_BLOCK_ROWS, -(-total // MIN_PIPELINE_BLOCKS))
    return max(1, min(capacity_rows, pipeline_rows, total))


def channel_first_schedule(
    spec: ConvSpec,
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    group_size: Optional[int] = None,
    layout: Layout = Layout.NHWC,
    debug_labels: bool = False,
) -> List[WorkItem]:
    """Work items for the channel-first implicit im2col conv (Sec. IV).

    Structure: for each IFMap row block, for each multi-tile group, for each
    K-chunk x N-chunk of the merged GEMM — one work item.  The group's input
    slab is filled once per (block, group); stationary weights are re-staged
    per (group, K-chunk, N-chunk); the OFMap block drains once per
    (block, N-chunk) after its last accumulating group.

    ``debug_labels=True`` attaches per-item position labels; the timing path
    never reads them, so they stay off by default.  Timing runs use the
    schedule engine (:mod:`repro.perf.batch`); this per-item builder is the
    reference the equivalence tests and ``--audit full`` gate against.
    """
    engine = engine if engine is not None else FillEngine(config)
    if group_size is None:
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
    groups = plan_multi_tile(spec, group_size, row_aligned=True)
    m_total = spec.lowered_rows()
    m_block = ifmap_rows_per_block(spec, config, group_size)
    items: List[WorkItem] = []
    for m0 in range(0, m_total, m_block):
        rows = min(m_block, m_total - m0)
        for gi, group in enumerate(groups):
            merged_k = group.merged_k
            input_fill = engine.ifmap_tile_fill_cycles(
                spec, rows, group.group_size, layout=layout
            )
            first_chunk = True
            for k0 in range(0, merged_k, config.array_rows):
                k_t = min(config.array_rows, merged_k - k0)
                for n0 in range(0, spec.c_out, config.array_cols):
                    n_t = min(config.array_cols, spec.c_out - n0)
                    fill = engine.weight_fill_cycles(k_t, n_t)
                    if first_chunk:
                        fill += input_fill
                        first_chunk = False
                    drain = 0.0
                    last_group = gi == len(groups) - 1 and k0 + k_t >= merged_k
                    if last_group:
                        drain = engine.ofmap_drain_cycles(rows, n_t)
                    occupancy = tile_occupancy_cycles(
                        rows, k_t, n_t, config, first=not items
                    )
                    items.append(
                        WorkItem(
                            label=f"m{m0}:g{gi}:k{k0}:n{n0}" if debug_labels else "",
                            gemm_cycles=occupancy,
                            fill_cycles=fill,
                            drain_cycles=drain,
                            macs=rows * k_t * n_t,
                        )
                    )
    return items


def gemm_schedule(
    shape: GemmShape,
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    debug_labels: bool = False,
) -> List[WorkItem]:
    """Work items for a plain GEMM primitive on the TPU.

    A-panels stream per (M-block, K-chunk); B tiles are stationary per
    (K-chunk, N-chunk); C drains per (M-block, N-chunk) on the last K-chunk.
    ``debug_labels`` opts into per-item position labels (never read on the
    timing path).
    """
    engine = engine if engine is not None else FillEngine(config)
    elem = config.compute_elem_bytes
    # A-panel budget: one of two IFMap buffers, as in the conv schedule;
    # same pipelining floor on the block count.
    budget = config.unified_sram_bytes // 4
    k_chunks = [
        min(config.array_rows, shape.k - k0) for k0 in range(0, shape.k, config.array_rows)
    ]
    per_row = max(k_chunks) * elem
    capacity_rows = max(1, budget // per_row)
    pipeline_rows = max(MIN_BLOCK_ROWS, -(-shape.m // MIN_PIPELINE_BLOCKS))
    m_block = max(1, min(shape.m, capacity_rows, pipeline_rows))
    items: List[WorkItem] = []
    for m0 in range(0, shape.m, m_block):
        rows = min(m_block, shape.m - m0)
        for ki, k0 in enumerate(range(0, shape.k, config.array_rows)):
            k_t = min(config.array_rows, shape.k - k0)
            a_fill = engine.gemm_a_fill_cycles(rows, k_t)
            first = True
            for n0 in range(0, shape.n, config.array_cols):
                n_t = min(config.array_cols, shape.n - n0)
                fill = engine.weight_fill_cycles(k_t, n_t)
                if first:
                    fill += a_fill
                    first = False
                drain = 0.0
                if k0 + k_t >= shape.k:
                    drain = engine.ofmap_drain_cycles(rows, n_t)
                occupancy = tile_occupancy_cycles(rows, k_t, n_t, config, first=not items)
                items.append(
                    WorkItem(
                        label=f"m{m0}:k{k0}:n{n0}" if debug_labels else "",
                        gemm_cycles=occupancy,
                        fill_cycles=fill,
                        drain_cycles=drain,
                        macs=rows * k_t * n_t,
                    )
                )
    return items
