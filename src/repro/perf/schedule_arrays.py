"""Struct-of-arrays schedules and the exact vectorized pipeline recurrence.

The per-item scheduler (:mod:`repro.systolic.scheduler`) materialises one
:class:`~repro.systolic.scheduler.WorkItem` dataclass per stationary tile and
folds over them in Python — clear, and kept as the scalar oracle, but every
layer would pay tens of thousands of attribute lookups.  This module holds
the same schedule as four parallel NumPy arrays (:class:`ScheduleArrays`),
which the one schedule engine (:mod:`repro.perf.batch`) builds and executes.

**Bit-exactness is a hard contract**, not an aspiration: every cycle count
the engine produces must equal the per-item path's result to the last float
bit, because the exported results are compared textually at full precision.

The pipeline recurrence ``w_i = max(w_{i-1}, s_i) + a_i`` is evaluated by
:func:`pipeline_free_times_segmented` with strictly left-to-right associated
additions (``np.cumsum`` over restart segments), matching the reference
fold's rounding exactly; a naive closed form
(``cumsum(a) + maximum.accumulate(s - cumsum(a))``) reassociates the sums and
drifts by ulps, so it is used only as the segmentation *guess* and the
result is verified against the recurrence's fixpoint condition.

:func:`execute_schedule_arrays` is the single-layer entry point: a batch of
one through :func:`repro.perf.batch.execute_schedule_batch`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..systolic.scheduler import ScheduleResult, WorkItem

__all__ = [
    "ScheduleArrays",
    "execute_schedule_arrays",
    "pipeline_free_times_segmented",
    "schedule_construction_count",
]

#: Number of schedule constructions performed since import — lets tests (and
#: the cache smoke test) assert that a memoized re-simulation builds nothing.
_CONSTRUCTION_COUNT = 0


def schedule_construction_count() -> int:
    """How many array schedules have been constructed in this process."""
    return _CONSTRUCTION_COUNT


@dataclasses.dataclass
class ScheduleArrays:
    """One schedule as four parallel arrays (float64 cycles, int64 MACs).

    Index ``i`` of every array describes the same work item the per-item
    scheduler would have emitted at position ``i``.
    """

    gemm_cycles: np.ndarray
    fill_cycles: np.ndarray
    drain_cycles: np.ndarray
    macs: np.ndarray

    def __len__(self) -> int:
        return int(self.gemm_cycles.size)

    def without_drains(self) -> "ScheduleArrays":
        """A copy whose OFMap drains are elided (network residency)."""
        return ScheduleArrays(
            gemm_cycles=self.gemm_cycles,
            fill_cycles=self.fill_cycles,
            drain_cycles=np.zeros_like(self.drain_cycles),
            macs=self.macs,
        )

    @classmethod
    def from_work_items(cls, items: Sequence[WorkItem]) -> "ScheduleArrays":
        return cls(
            gemm_cycles=np.array([i.gemm_cycles for i in items], dtype=np.float64),
            fill_cycles=np.array([i.fill_cycles for i in items], dtype=np.float64),
            drain_cycles=np.array([i.drain_cycles for i in items], dtype=np.float64),
            macs=np.array([i.macs for i in items], dtype=np.int64),
        )

    def to_work_items(self, prefix: str = "item") -> List[WorkItem]:
        """Materialise per-item objects (debugging / cross-checks only)."""
        return [
            WorkItem(
                label=f"{prefix}{i}",
                gemm_cycles=float(self.gemm_cycles[i]),
                fill_cycles=float(self.fill_cycles[i]),
                drain_cycles=float(self.drain_cycles[i]),
                macs=int(self.macs[i]),
            )
            for i in range(len(self))
        ]


# --------------------------------------------------------------------------
# Exact vectorized pipeline recurrence
# --------------------------------------------------------------------------

_MAX_SEGMENT_REFINES = 6

#: Up to this many items the plain fold is cheaper than the NumPy passes
#: (~0.25 µs per item against ~25 µs of fixed per-call overhead), so a
#: single layer's chains — a few dozen items — never pay for segmentation.
_FOLD_MAX_ITEMS = 64


def pipeline_free_times_segmented(
    start_floor: np.ndarray, busy: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Solve ``w_i = max(w_{i-1}, s_i) + a_i`` bit-exactly over concatenated chains.

    ``start_floor`` (``s``) is the earliest moment item ``i`` may start (its
    fill landing, or its producing GEMM finishing); ``busy`` (``a``) is the
    resource time it then holds.  ``seg_starts`` marks where each chain
    begins in the flat arrays; the recurrence state resets there
    (``w_{-1} = 0`` per chain), so slicing the result at a chain's bounds is
    bit-identical to the sequential fold over that chain alone.  Within each
    "restart segment" (a maximal run where the resource never idles) the
    value is a plain left-associated running sum, evaluated with
    ``np.cumsum``; chain boundaries are simply *forced* restarts in the
    segmentation.

    The segmentation (the set of ``i`` where ``s_i >= w_{i-1}``, i.e. the
    resource sat idle and the term restarts from ``s_i``) is guessed from
    the reassociated closed form and then verified as a fixpoint of the
    exact evaluation.  Short inputs, and the rare non-converging one, run
    the scalar fold instead, which is exact by construction.  This assumes
    ``start_floor >= 0`` at each chain's first item (true for every
    schedule: fills and compute-free floors are nonnegative), so a forced
    restart yields ``s + a`` exactly as the fold's ``max(0, s) + a``.
    """
    s = np.asarray(start_floor, dtype=np.float64)
    a = np.asarray(busy, dtype=np.float64)
    n = s.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    forced = np.zeros(n, dtype=bool)
    forced[seg_starts] = True
    forced[0] = True
    if n <= _FOLD_MAX_ITEMS:
        return _fold(s, a, forced)

    # Per-job reassociated closed-form guess (rounding-tolerant: it only
    # seeds the segmentation, which the fixpoint check below verifies).
    w = np.empty(n, dtype=np.float64)
    bounds = np.flatnonzero(forced).tolist()
    for st, en in zip(bounds, bounds[1:] + [n]):
        ss = s[st:en]
        acc = np.cumsum(a[st:en])
        acc_prev = np.empty_like(acc)
        acc_prev[0] = 0.0
        acc_prev[1:] = acc[:-1]
        w[st:en] = acc + np.maximum.accumulate(np.maximum(ss - acc_prev, -acc_prev))

    restart = np.empty(n, dtype=bool)
    for _ in range(_MAX_SEGMENT_REFINES):
        restart[0] = True
        np.greater_equal(s[1:], w[:-1], out=restart[1:])
        restart |= forced
        w_new = _evaluate_segments(s, a, restart)
        # Forced positions restart regardless of the idle condition, so they
        # are exempt from the fixpoint check.
        stable = bool(
            np.all(((s[1:] >= w_new[:-1]) == restart[1:]) | forced[1:])
        )
        w = w_new
        if stable:
            return w

    return _fold(s, a, forced)  # safety net: never observed to trigger


def _fold(s: np.ndarray, a: np.ndarray, forced: np.ndarray) -> np.ndarray:
    """The sequential fold, state reset at every forced position."""
    out = []
    prev = 0.0
    for start, busy, reset in zip(s.tolist(), a.tolist(), forced.tolist()):
        if reset:
            prev = 0.0
        prev = max(prev, start) + busy
        out.append(prev)
    return np.array(out, dtype=np.float64)


def _evaluate_segments(s: np.ndarray, a: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """Exact left-associated evaluation given a restart segmentation."""
    n = s.size
    starts = np.flatnonzero(restart)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    out = np.empty(n, dtype=np.float64)
    single = ends - starts == 1
    idx = starts[single]
    if idx.size:
        out[idx] = s[idx] + a[idx]
    for st, en in zip(starts[~single].tolist(), ends[~single].tolist()):
        seg = np.empty(en - st + 1, dtype=np.float64)
        seg[0] = s[st]
        seg[1:] = a[st:en]
        out[st:en] = np.cumsum(seg)[1:]
    return out


def execute_schedule_arrays(schedule: ScheduleArrays, arrays: int = 1) -> ScheduleResult:
    """Execute one schedule on ``arrays`` MXUs: a batch of one through the engine.

    A thin wrapper over :func:`repro.perf.batch.execute_schedule_batch`,
    bit-identical to the scalar oracle
    :func:`~repro.systolic.scheduler.execute_schedule`.
    """
    # Imported at call time: repro.perf.batch imports this module.
    from . import batch

    return batch.execute_schedule_batch([schedule], arrays)[0]
