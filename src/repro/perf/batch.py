"""The schedule engine: batched construction and one segmented recurrence.

Every memoized TPU pricing path builds its schedule here and executes it
here — a single layer is simply a batch of one (through the thin
:func:`~repro.perf.schedule_arrays.execute_schedule_arrays` wrapper).  The
per-item scheduler (:mod:`repro.systolic.scheduler`) is the scalar oracle
the engine is gated against, never a production path.  Scheduling is
amortized across a whole batch of layers (the implicit-im2col move —
amortize the lowering across the GEMM — applied one level up):

- **Construction** (:func:`conv_schedule_batch` / :func:`gemm_schedule_batch`):
  each schedule's K×N chunk grid holds at most four distinct values per cost
  kind (full/tail chunk rows × full/tail chunk cols), so the grids are
  assembled with array writes instead of per-item Python loops, and one
  :class:`BatchPricer` memoizes every distinct scalar argument tuple *across
  the batch* — a weight-fill or occupancy priced for layer 3 is never
  re-priced for layer 40.
- **Execution** (:func:`execute_schedule_batch`): all schedules concatenate
  into one flat ragged batch with per-job segment offsets; cumulative sums
  run on a zero-padded 2-D view (adding ``0.0`` is a float identity, so the
  padded row-wise ``cumsum`` is bit-identical to each job's own), and the
  pipeline recurrence runs once over the flat arrays via
  :func:`~repro.perf.schedule_arrays.pipeline_free_times_segmented` with
  forced restarts at chain boundaries.  With ``arrays`` MXUs each job's
  items round-robin over the engines, and every (job, engine) chain is one
  forced-restart segment.

**Bit-exactness to the scalar oracle is a hard contract**: the same scalar
pricing functions are called with the same argument tuples, every array
element lands where the item scheduler would have emitted it, and every
reduction keeps the reference's left-to-right association.  The equivalence
tests (``tests/perf/test_executor_equivalence.py``,
``tests/perf/test_batch.py``) gate this to the last float bit.

Audit note: scalar-cost sharing across specs means ``ifmap_tile_fill_cycles``
runs once per distinct feature tuple, not once per spec — the same
"verified once per key" policy the perf cache already applies.  Under
``--audit full`` the differential checker rebuilds every layer's schedule
as a batch of one and re-runs it through the per-item oracle, so per-spec
audit coverage is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.tiling import MultiTileGroup, plan_multi_tile
from ..trace import tracer as trace
from ..systolic.config import TPUConfig
from ..systolic.dma import FillEngine
from ..systolic.scheduler import (
    MIN_BLOCK_ROWS,
    MIN_PIPELINE_BLOCKS,
    ScheduleResult,
    ifmap_rows_per_block,
    tile_occupancy_cycles,
)
# Module binding only: repro.perf.schedule_arrays imports the systolic
# package back (config -> __init__ -> simulator -> this module), so named
# imports here would see it partially initialized on one import order.
from . import schedule_arrays as _sa
from .cache import canonical_layout

__all__ = [
    "BatchPricer",
    "conv_schedule_batch",
    "gemm_schedule_batch",
    "execute_schedule_batch",
]

#: Flat padded-batch size (jobs × longest job) beyond which the executor
#: degrades to per-job execution instead of materialising the 2-D pad.
_MAX_PADDED_ELEMENTS = 64_000_000


class BatchPricer:
    """Scalar-cost and grid memoization shared across one batch.

    Every distinct argument tuple of each pricing function is evaluated
    exactly once per pricer, no matter how many layers in the batch need
    it.  All values come from the *same* scalar functions the per-layer
    builders call, so sharing cannot change a single bit.

    The IFMap-fill memo keys on exactly the features
    :meth:`~repro.systolic.dma.FillEngine.ifmap_tile_fill_cycles` reads —
    block rows, group size, batch, channels, stride, fill contiguity,
    output row width, IFMap spatial size and the layout *class* (NHWC/HWCN
    and NCHW/CHWN price identically) — so two different specs share an
    entry only when the engine would have returned the identical float.
    """

    def __init__(self, config: TPUConfig, engine: FillEngine):
        self.config = config
        self.engine = engine
        self._weight_fill: Dict[Tuple, float] = {}
        self._occupancy: Dict[Tuple, float] = {}
        self._drain: Dict[Tuple, float] = {}
        self._a_fill: Dict[Tuple, float] = {}
        self._ifmap_fill: Dict[Tuple, float] = {}
        self._conv_grids: Dict[Tuple, Tuple] = {}
        self._gemm_grids: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------- scalars
    def weight_fill(self, k_t: int, n_t: int) -> float:
        key = (k_t, n_t)
        value = self._weight_fill.get(key)
        if value is None:
            value = self.engine.weight_fill_cycles(k_t, n_t)
            self._weight_fill[key] = value
        return value

    def occupancy(self, rows: int, k_t: int, n_t: int, first: bool = False) -> float:
        key = (rows, k_t, n_t, first)
        value = self._occupancy.get(key)
        if value is None:
            value = tile_occupancy_cycles(rows, k_t, n_t, self.config, first=first)
            self._occupancy[key] = value
        return value

    def drain(self, rows: int, n_t: int) -> float:
        key = (rows, n_t)
        value = self._drain.get(key)
        if value is None:
            value = self.engine.ofmap_drain_cycles(rows, n_t)
            self._drain[key] = value
        return value

    def a_fill(self, rows: int, k_t: int) -> float:
        key = (rows, k_t)
        value = self._a_fill.get(key)
        if value is None:
            value = self.engine.gemm_a_fill_cycles(rows, k_t)
            self._a_fill[key] = value
        return value

    def ifmap_fill(
        self, spec: ConvSpec, rows: int, group_size: int, layout: Layout
    ) -> float:
        contiguous = spec.stride == 1 and spec.dilation == 1
        key = (
            rows,
            group_size,
            spec.n,
            spec.c_in,
            spec.stride,
            contiguous,
            spec.w_out,
            spec.h_in * spec.w_in,
            canonical_layout(layout),
        )
        value = self._ifmap_fill.get(key)
        if value is None:
            value = self.engine.ifmap_tile_fill_cycles(
                spec, rows, group_size, layout=layout
            )
            self._ifmap_fill[key] = value
        return value

    # --------------------------------------------------------------- grids
    def conv_grid(
        self, rows: int, merged_k: int, c_out: int, drains_here: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat (fill, gemm, drain, macs) for one group's K×N chunk grid.

        The grid is row-major over K-chunks then N-chunks — exactly the
        item scheduler's loop order — and holds at most four distinct
        values per array (full/tail chunk on each axis), written as block
        assignments.  The IFMap fill is *not* included (it lands on the
        group's first flat element at assembly, after the shared grid is
        copied).  Cached arrays are immutable; callers must copy before
        mutating.
        """
        key = (rows, merged_k, c_out, drains_here)
        cached = self._conv_grids.get(key)
        if cached is not None:
            return cached
        ar, ac = self.config.array_rows, self.config.array_cols
        kc = -(-merged_k // ar)
        nc = -(-c_out // ac)
        kt_last = merged_k - (kc - 1) * ar
        nt_last = c_out - (nc - 1) * ac

        fill = np.empty((kc, nc), dtype=np.float64)
        gemm = np.empty((kc, nc), dtype=np.float64)
        if kc > 1 and nc > 1:
            fill[: kc - 1, : nc - 1] = self.weight_fill(ar, ac)
            gemm[: kc - 1, : nc - 1] = self.occupancy(rows, ar, ac)
        if kc > 1:
            fill[: kc - 1, nc - 1] = self.weight_fill(ar, nt_last)
            gemm[: kc - 1, nc - 1] = self.occupancy(rows, ar, nt_last)
        if nc > 1:
            fill[kc - 1, : nc - 1] = self.weight_fill(kt_last, ac)
            gemm[kc - 1, : nc - 1] = self.occupancy(rows, kt_last, ac)
        fill[kc - 1, nc - 1] = self.weight_fill(kt_last, nt_last)
        gemm[kc - 1, nc - 1] = self.occupancy(rows, kt_last, nt_last)

        drain = np.zeros((kc, nc), dtype=np.float64)
        if drains_here:
            if nc > 1:
                drain[kc - 1, : nc - 1] = self.drain(rows, ac)
            drain[kc - 1, nc - 1] = self.drain(rows, nt_last)

        kt = np.full(kc, ar, dtype=np.int64)
        kt[-1] = kt_last
        nt = np.full(nc, ac, dtype=np.int64)
        nt[-1] = nt_last
        macs = rows * np.multiply.outer(kt, nt)

        grids = (fill.reshape(-1), gemm.reshape(-1), drain.reshape(-1), macs.reshape(-1))
        for arr in grids:
            arr.flags.writeable = False
        self._conv_grids[key] = grids
        return grids

    def gemm_grid(
        self, rows: int, k: int, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat (fill, gemm, drain, macs) for one GEMM M-block's chunk grid.

        Unlike the conv grid, the A-panel fill *is* baked in (column 0 of
        every K-chunk row, ``weight + a_fill`` in the reference's add
        order) and so is the C drain (last K-chunk row) — both are
        functions of the key alone.
        """
        key = (rows, k, n)
        cached = self._gemm_grids.get(key)
        if cached is not None:
            return cached
        ar, ac = self.config.array_rows, self.config.array_cols
        kc = -(-k // ar)
        nc = -(-n // ac)
        kt_last = k - (kc - 1) * ar
        nt_last = n - (nc - 1) * ac

        fill = np.empty((kc, nc), dtype=np.float64)
        gemm = np.empty((kc, nc), dtype=np.float64)
        if kc > 1 and nc > 1:
            fill[: kc - 1, : nc - 1] = self.weight_fill(ar, ac)
            gemm[: kc - 1, : nc - 1] = self.occupancy(rows, ar, ac)
        if kc > 1:
            fill[: kc - 1, nc - 1] = self.weight_fill(ar, nt_last)
            gemm[: kc - 1, nc - 1] = self.occupancy(rows, ar, nt_last)
        if nc > 1:
            fill[kc - 1, : nc - 1] = self.weight_fill(kt_last, ac)
            gemm[kc - 1, : nc - 1] = self.occupancy(rows, kt_last, ac)
        fill[kc - 1, nc - 1] = self.weight_fill(kt_last, nt_last)
        gemm[kc - 1, nc - 1] = self.occupancy(rows, kt_last, nt_last)

        a_fill = np.empty(kc, dtype=np.float64)
        if kc > 1:
            a_fill[: kc - 1] = self.a_fill(rows, ar)
        a_fill[kc - 1] = self.a_fill(rows, kt_last)
        fill[:, 0] += a_fill  # same float add as the reference's weight + a_fill

        drain = np.zeros((kc, nc), dtype=np.float64)
        if nc > 1:
            drain[kc - 1, : nc - 1] = self.drain(rows, ac)
        drain[kc - 1, nc - 1] = self.drain(rows, nt_last)

        kt = np.full(kc, ar, dtype=np.int64)
        kt[-1] = kt_last
        nt = np.full(nc, ac, dtype=np.int64)
        nt[-1] = nt_last
        macs = rows * np.multiply.outer(kt, nt)

        grids = (fill.reshape(-1), gemm.reshape(-1), drain.reshape(-1), macs.reshape(-1))
        for arr in grids:
            arr.flags.writeable = False
        self._gemm_grids[key] = grids
        return grids


# --------------------------------------------------------------------------
# Batched construction
# --------------------------------------------------------------------------


def _assemble_blocks(templates: dict, rows_sequence: List[int]) -> _sa.ScheduleArrays:
    """Concatenate per-block templates in block order (tiling equal runs)."""
    parts_fill: List[np.ndarray] = []
    parts_gemm: List[np.ndarray] = []
    parts_drain: List[np.ndarray] = []
    parts_macs: List[np.ndarray] = []
    i = 0
    while i < len(rows_sequence):
        rows = rows_sequence[i]
        j = i
        while j < len(rows_sequence) and rows_sequence[j] == rows:
            j += 1
        fill, gemm, drain, macs = templates[rows]
        reps = j - i
        parts_fill.append(np.tile(fill, reps) if reps > 1 else fill)
        parts_gemm.append(np.tile(gemm, reps) if reps > 1 else gemm.copy())
        parts_drain.append(np.tile(drain, reps) if reps > 1 else drain)
        parts_macs.append(np.tile(macs, reps) if reps > 1 else macs)
        i = j
    if len(parts_fill) == 1:
        return _sa.ScheduleArrays(parts_gemm[0], parts_fill[0], parts_drain[0], parts_macs[0])
    return _sa.ScheduleArrays(
        gemm_cycles=np.concatenate(parts_gemm),
        fill_cycles=np.concatenate(parts_fill),
        drain_cycles=np.concatenate(parts_drain),
        macs=np.concatenate(parts_macs),
    )


def _conv_template(
    spec: ConvSpec,
    rows: int,
    groups: Sequence,
    pricer: BatchPricer,
    layout: Layout,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One IFMap block's template: concatenated group grids + IFMap fills."""
    last_gi = len(groups) - 1
    parts_fill: List[np.ndarray] = []
    parts_gemm: List[np.ndarray] = []
    parts_drain: List[np.ndarray] = []
    parts_macs: List[np.ndarray] = []
    fill_positions: List[Tuple[int, float]] = []
    offset = 0
    for gi, group in enumerate(groups):
        g_fill, g_gemm, g_drain, g_macs = pricer.conv_grid(
            rows, group.merged_k, spec.c_out, gi == last_gi
        )
        parts_fill.append(g_fill)
        parts_gemm.append(g_gemm)
        parts_drain.append(g_drain)
        parts_macs.append(g_macs)
        fill_positions.append(
            (offset, pricer.ifmap_fill(spec, rows, group.group_size, layout))
        )
        offset += g_fill.size
    # np.concatenate always copies, so the shared grids stay pristine and
    # the IFMap-fill adds below mutate this template's own buffer.
    fill = np.concatenate(parts_fill)
    gemm = np.concatenate(parts_gemm)
    drain = np.concatenate(parts_drain)
    macs = np.concatenate(parts_macs)
    for pos, input_fill in fill_positions:
        fill[pos] += input_fill  # weight + input_fill, the reference's order
    return fill, gemm, drain, macs


def conv_schedule_batch(
    jobs: Sequence[Tuple[ConvSpec, int]],
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    layout: Layout = Layout.NHWC,
    pricer: Optional[BatchPricer] = None,
    groups: Optional[Sequence[Optional[Sequence[MultiTileGroup]]]] = None,
) -> List[_sa.ScheduleArrays]:
    """Array schedules for ``(spec, group_size)`` jobs with shared pricing.

    ``groups``, when given, holds one entry per job: that job's tile groups
    (e.g. the kept positions of a sparse mask), or ``None`` for the default
    row-aligned multi-tile plan.  Bit-identical per job to the per-item
    builders :func:`~repro.systolic.scheduler.channel_first_schedule` and
    :func:`~repro.systolic.sparse_schedule.sparse_channel_first_schedule`.
    """
    engine = engine if engine is not None else FillEngine(config)
    if pricer is None:
        pricer = BatchPricer(config, engine)
    schedules: List[_sa.ScheduleArrays] = []
    for index, (spec, group_size) in enumerate(jobs):
        _sa._CONSTRUCTION_COUNT += 1
        job_groups = groups[index] if groups is not None else None
        if job_groups is None:
            job_groups = plan_multi_tile(spec, group_size, row_aligned=True)
        m_total = spec.lowered_rows()
        m_block = ifmap_rows_per_block(spec, config, group_size)
        n_blocks = -(-m_total // m_block)
        rows_sequence = [m_block] * (n_blocks - 1) + [
            m_total - m_block * (n_blocks - 1)
        ]
        templates = {
            rows: _conv_template(spec, rows, job_groups, pricer, layout)
            for rows in set(rows_sequence)
        }
        schedule = _assemble_blocks(templates, rows_sequence)
        if len(schedule):
            first_k = min(config.array_rows, job_groups[0].merged_k)
            first_n = min(config.array_cols, spec.c_out)
            schedule.gemm_cycles[0] = pricer.occupancy(
                rows_sequence[0], first_k, first_n, first=True
            )
        schedules.append(schedule)
    if trace.enabled():
        trace.counter("schedule.constructions", len(jobs), cat="schedule")
        trace.counter("schedule.batched_constructions", len(jobs), cat="schedule")
    return schedules


def gemm_schedule_batch(
    shapes: Sequence[GemmShape],
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    pricer: Optional[BatchPricer] = None,
) -> List[_sa.ScheduleArrays]:
    """Array schedules for GEMM shapes with shared pricing.

    Bit-identical per shape to the per-item builder
    :func:`~repro.systolic.scheduler.gemm_schedule`.
    """
    engine = engine if engine is not None else FillEngine(config)
    if pricer is None:
        pricer = BatchPricer(config, engine)
    array_rows = config.array_rows
    elem = config.compute_elem_bytes
    budget = config.unified_sram_bytes // 4
    schedules: List[_sa.ScheduleArrays] = []
    for shape in shapes:
        _sa._CONSTRUCTION_COUNT += 1
        k_first = min(array_rows, shape.k)
        k_max = array_rows if shape.k >= array_rows else shape.k
        per_row = k_max * elem
        capacity_rows = max(1, budget // per_row)
        pipeline_rows = max(MIN_BLOCK_ROWS, -(-shape.m // MIN_PIPELINE_BLOCKS))
        m_block = max(1, min(shape.m, capacity_rows, pipeline_rows))
        n_blocks = -(-shape.m // m_block)
        rows_sequence = [m_block] * (n_blocks - 1) + [
            shape.m - m_block * (n_blocks - 1)
        ]
        templates = {
            rows: pricer.gemm_grid(rows, shape.k, shape.n)
            for rows in set(rows_sequence)
        }
        schedule = _assemble_blocks(templates, rows_sequence)
        if len(schedule):
            first_n = min(config.array_cols, shape.n)
            schedule.gemm_cycles[0] = pricer.occupancy(
                rows_sequence[0], k_first, first_n, first=True
            )
        schedules.append(schedule)
    if trace.enabled():
        trace.counter("schedule.constructions", len(shapes), cat="schedule")
        trace.counter("schedule.batched_constructions", len(shapes), cat="schedule")
    return schedules


# --------------------------------------------------------------------------
# Batched execution
# --------------------------------------------------------------------------


def _empty_result() -> ScheduleResult:
    return ScheduleResult(0.0, 0.0, 0.0, 0.0, 0, 0)


def _length_buckets(widths: np.ndarray) -> List[np.ndarray]:
    """Partition row indices into similar-length buckets (descending).

    Rows are padded per bucket, and a bucket only admits rows at least half
    its widest row — so each bucket's pad is at most ~2x its payload no
    matter how skewed the batch (a lone 32K-item GEMM next to 500-item ones
    must not make every row pay 32K columns).  Row order never affects
    row-wise results, so bucketing is invisible to the numbers.
    """
    order = np.argsort(-widths, kind="stable")
    buckets: List[np.ndarray] = []
    pos = 0
    while pos < order.size:
        bucket_max = int(widths[order[pos]])
        end = pos + 1
        while end < order.size and 2 * int(widths[order[end]]) >= bucket_max:
            end += 1
        buckets.append(order[pos:end])
        pos = end
    return buckets


def _engine_major(
    starts: np.ndarray, alens: np.ndarray, arrays: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Order grouping each job's items by engine, and its chain starts.

    Item ``i`` of a job runs on engine ``i % arrays``.  The returned order
    keeps jobs in place and lists each job's engine chains one after
    another (items in schedule order within a chain); the chain starts index
    that reordered array.
    """
    job_of = np.repeat(np.arange(alens.size, dtype=np.int64), alens)
    local = np.arange(job_of.size, dtype=np.int64) - np.repeat(starts, alens)
    chain = job_of * arrays + local % arrays
    order = np.argsort(chain, kind="stable")
    chain_starts = np.flatnonzero(np.diff(chain[order], prepend=-1))
    return order, chain_starts


def execute_schedule_batch(
    schedules: Sequence[_sa.ScheduleArrays], arrays: int = 1
) -> List[ScheduleResult]:
    """Execute many schedules as one flat segmented batch.

    Per-job results are bit-identical to the scalar oracle
    :func:`~repro.systolic.scheduler.execute_schedule` (with the same
    ``arrays``): row-wise cumulative sums on a zero-padded 2-D layout
    reproduce each job's own left-associated sums (adding ``0.0`` is
    exact), and the pipeline recurrences — the compute chains and the
    drained write chain — run over the concatenated arrays with forced
    restarts at chain boundaries.

    ``arrays`` MXUs share the read and write DMA channels; each job's items
    round-robin over them, so every (job, engine) pair is its own compute
    chain and a job's compute finishes with its latest chain.
    """
    lens = np.array([len(s) for s in schedules], dtype=np.int64)
    jobs = int(lens.size)
    if jobs == 0:
        return []
    nonempty = np.flatnonzero(lens)
    if nonempty.size == 0:
        return [_empty_result() for _ in schedules]
    if nonempty.size > 1 and 2 * int(lens.sum()) > _MAX_PADDED_ELEMENTS:
        # Batch too large to stage even through ~2x-payload bucket pads.  A
        # lone job is never padded, so these batches of one cannot recurse.
        return [execute_schedule_batch([s], arrays)[0] for s in schedules]
    if trace.enabled():
        trace.counter("schedule.batched_executions", 1, cat="schedule")
        trace.counter("schedule.batched_jobs", int(nonempty.size), cat="schedule")
        trace.counter(
            "schedule.vectorized_items", int(lens.sum()), cat="schedule"
        )

    active = [schedules[i] for i in nonempty.tolist()]
    alens = lens[nonempty]
    j = len(active)
    fill = np.concatenate([s.fill_cycles for s in active])
    gemm = np.concatenate([s.gemm_cycles for s in active])
    drain = np.concatenate([s.drain_cycles for s in active])
    starts = np.zeros(j, dtype=np.int64)
    np.cumsum(alens[:-1], out=starts[1:])

    # Row-wise padded cumsums, bucketed by length so the pad stays ~2x the
    # payload.  Each padded row reproduces its job's own left-associated
    # cumulative sum exactly (adding 0.0 is a float identity).
    read_free = np.empty(fill.size, dtype=np.float64)
    read_free_last = np.empty(j, dtype=np.float64)
    compute_busy = np.empty(j, dtype=np.float64)
    dma_busy = np.empty(j, dtype=np.float64)
    for idxs in _length_buckets(alens):
        if idxs.size == 1:
            # A lone job needs no pad: plain 1-D cumsums are its own sums.
            i = int(idxs[0])
            segment = slice(int(starts[i]), int(starts[i] + alens[i]))
            job_read = np.cumsum(fill[segment])
            read_free[segment] = job_read
            read_free_last[i] = job_read[-1]
            compute_busy[i] = np.cumsum(gemm[segment])[-1]
            inter = np.empty(2 * int(alens[i]), dtype=np.float64)
            inter[0::2] = fill[segment]
            inter[1::2] = drain[segment]
            dma_busy[i] = np.cumsum(inter)[-1]
            continue
        widths = alens[idxs]
        bucket_max = int(widths[0])
        rows = np.arange(idxs.size)
        last_col = widths - 1
        mask = np.arange(bucket_max, dtype=np.int64) < widths[:, None]
        segments = [
            slice(int(starts[i]), int(starts[i] + alens[i])) for i in idxs.tolist()
        ]
        bucket_fill = np.concatenate([fill[s] for s in segments])
        bucket_drain = np.concatenate([drain[s] for s in segments])

        # Read channel: per-job cumulative fill times.
        pad = np.zeros((idxs.size, bucket_max), dtype=np.float64)
        pad[mask] = bucket_fill
        read_csum = np.cumsum(pad, axis=1)
        split_at = np.cumsum(widths)[:-1]
        for segment, chunk in zip(segments, np.split(read_csum[mask], split_at)):
            read_free[segment] = chunk
        read_free_last[idxs] = read_csum[rows, last_col]

        # Compute busy: per-job cumulative GEMM totals.
        pad[:] = 0.0
        pad[mask] = np.concatenate([gemm[s] for s in segments])
        compute_busy[idxs] = np.cumsum(pad, axis=1)[rows, last_col]

        # DMA busy: fills and drains interleaved per item, per job.
        inter = np.zeros((idxs.size, 2 * bucket_max), dtype=np.float64)
        inter[:, 0::2][mask] = bucket_fill
        inter[:, 1::2][mask] = bucket_drain
        dma_busy[idxs] = np.cumsum(inter, axis=1)[rows, 2 * widths - 1]

    # Compute chains: the segmented pipeline recurrence, one forced-restart
    # segment per (job, engine) chain, solved engine-major and scattered back.
    if arrays == 1:
        compute_free = _sa.pipeline_free_times_segmented(read_free, gemm, starts)
    else:
        order, chain_starts = _engine_major(starts, alens, arrays)
        compute_free = np.empty_like(read_free)
        compute_free[order] = _sa.pipeline_free_times_segmented(
            read_free[order], gemm[order], chain_starts
        )
    # Chains never run backwards, so this max is the latest chain's last
    # element — with one engine, simply the job's last element.
    compute_finish = np.maximum.reduceat(compute_free, starts)

    # Write channel: the drained sub-chain, segmented per job.
    write_final = np.zeros(j, dtype=np.float64)
    drained = np.flatnonzero(drain)
    if drained.size:
        # Each job's drained items, as index bounds into ``drained``.
        first = np.searchsorted(drained, starts)
        last = np.searchsorted(drained, starts + alens) - 1
        has = last >= first
        w = _sa.pipeline_free_times_segmented(
            compute_free[drained], drain[drained], first[has]
        )
        write_final[has] = w[last[has]]

    total = np.maximum(np.maximum(compute_finish, read_free_last), write_final)
    exposed = np.maximum(0.0, total - compute_busy / arrays)

    results: List[ScheduleResult] = [_empty_result() for _ in schedules]
    for pos, sched_idx in enumerate(nonempty.tolist()):
        results[sched_idx] = ScheduleResult(
            total_cycles=float(total[pos]),
            compute_cycles=float(compute_busy[pos]),
            dma_cycles=float(dma_busy[pos]),
            exposed_dma_cycles=float(exposed[pos]),
            items=int(alens[pos]),
            macs=int(schedules[sched_idx].macs.sum()),
        )
    return results
