"""Functional execution of the block-level GPU kernels (Sec. V, Fig 12).

The timing models in this package assert things about kernels they never
run; this module runs them.  :class:`BlockedChannelFirstKernel` executes a
convolution exactly the way the paper's CUDA kernel is organised:

- the output matrix is partitioned into ``tile_m x tile_n`` thread-block
  tiles — each TB owns its tile exclusively, so the no-atomics claim is a
  checkable invariant (every output element written exactly once);
- within a TB, the K-march visits decomposed filters (in the reuse order if
  requested), stages each decomposed tile slice into a modelled shared
  memory, and accumulates ``C_tile += A_stage @ B_slice``;
- the shared-memory model tracks which taps are resident, so consecutive
  decomposed filters only fetch their working-set *difference* from global
  memory — the measured reuse must match the analytic
  :func:`~repro.core.reordering.order_reuse_fraction` (a test pins this),
  closing the loop between the traffic model and an executable kernel.

:class:`BlockedChannelLastKernel` does the same for the baseline: the TB
stages the sliding-window IFMap region and gathers lowered columns from it
(the crossbar's job).  Its staged volume is what the stride study prices.

Statistics reported per run: global-memory elements fetched, shared-memory
high-water occupancy, and output write counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..core.channel_first import decompose
from ..core.conv_spec import ConvSpec
from ..core.lowering import ColumnOrder, flatten_filters
from ..core.reference import direct_conv2d, pad_ifmap
from ..core.reordering import greedy_reuse_order

__all__ = ["KernelStats", "BlockedChannelFirstKernel", "BlockedChannelLastKernel"]


@dataclasses.dataclass
class KernelStats:
    """Counters accumulated over one kernel execution."""

    thread_blocks: int = 0
    global_elements_loaded: int = 0
    shared_high_water_elements: int = 0
    output_writes: int = 0
    duplicate_output_writes: int = 0

    def assert_no_atomics_needed(self) -> None:
        if self.duplicate_output_writes:
            raise AssertionError(
                f"{self.duplicate_output_writes} output elements written more than "
                "once — the blocking failed to avoid atomics"
            )


def _row_coords(spec: ConvSpec, row: int) -> Tuple[int, int, int]:
    """Lowered row index -> (n, oy, ox)."""
    per_image = spec.h_out * spec.w_out
    n, rest = divmod(row, per_image)
    oy, ox = divmod(rest, spec.w_out)
    return n, oy, ox


class BlockedChannelFirstKernel:
    """The paper's GPU kernel, functionally (Fig 12 + inter-tile reuse)."""

    def __init__(self, tile_m: int = 64, tile_n: int = 64, reorder: bool = True):
        if tile_m <= 0 or tile_n <= 0:
            raise ValueError("tile dims must be positive")
        self.tile_m = tile_m
        self.tile_n = tile_n
        self.reorder = reorder
        self.stats = KernelStats()

    def run(
        self, ifmap: np.ndarray, weights: np.ndarray, spec: ConvSpec, verify: bool = True
    ) -> np.ndarray:
        if ifmap.shape != spec.ifmap_shape:
            raise ValueError(f"ifmap shape {ifmap.shape} != {spec.ifmap_shape}")
        if weights.shape != spec.filter_shape:
            raise ValueError(f"weights shape {weights.shape} != {spec.filter_shape}")
        padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
        flat_b = flatten_filters(weights, spec, ColumnOrder.CHANNEL_FIRST).astype(np.float64)
        order = greedy_reuse_order(spec) if self.reorder else decompose(spec)

        m_total = spec.lowered_rows()
        output = np.zeros((m_total, spec.c_out))
        write_counts = np.zeros((m_total, spec.c_out), dtype=np.int64)

        for m0 in range(0, m_total, self.tile_m):
            rows = range(m0, min(m0 + self.tile_m, m_total))
            for n0 in range(0, spec.c_out, self.tile_n):
                cols = slice(n0, min(n0 + self.tile_n, spec.c_out))
                self._run_thread_block(spec, padded, flat_b, rows, cols, output, write_counts)

        self.stats.output_writes = int(write_counts.sum())
        self.stats.duplicate_output_writes = int((write_counts > 1).sum())
        if verify:
            reference = direct_conv2d(ifmap, weights, spec)
            produced = np.ascontiguousarray(
                output.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
            )
            if not np.allclose(produced, reference):
                raise AssertionError("blocked channel-first kernel diverged")
        return np.ascontiguousarray(
            output.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
        )

    # ------------------------------------------------------------ one block
    def _run_thread_block(self, spec, padded, flat_b, rows, cols, output, write_counts):
        """One TB: K-march over decomposed filters with a resident-tap cache."""
        self.stats.thread_blocks += 1
        order = greedy_reuse_order(spec) if self.reorder else decompose(spec)
        # Shared memory: resident taps keyed by padded coordinate; the value
        # is the channel vector.  This is the reuse the reordering exploits.
        shared: Dict[Tuple[int, int, int], np.ndarray] = {}
        accumulator = np.zeros((len(rows), cols.stop - cols.start))
        for tile in order:
            a_stage = np.empty((len(rows), spec.c_in))
            fresh: Dict[Tuple[int, int, int], np.ndarray] = {}
            for i, row in enumerate(rows):
                n, oy, ox = _row_coords(spec, row)
                y = oy * spec.stride + tile.r * spec.dilation
                x = ox * spec.stride + tile.s * spec.dilation
                key = (n, y, x)
                if key in shared:
                    a_stage[i] = shared[key]
                else:
                    vector = padded[n, :, y, x]
                    self.stats.global_elements_loaded += spec.c_in
                    fresh[key] = vector
                    a_stage[i] = vector
            # The previous tile's residents are evicted; this tile's set
            # (old hits + fresh fetches) becomes the new resident set —
            # double-buffered shared memory holding one working set.
            survivors = {}
            for i, row in enumerate(rows):
                n, oy, ox = _row_coords(spec, row)
                y = oy * spec.stride + tile.r * spec.dilation
                x = ox * spec.stride + tile.s * spec.dilation
                survivors[(n, y, x)] = a_stage[i]
            shared = survivors
            self.stats.shared_high_water_elements = max(
                self.stats.shared_high_water_elements, len(shared) * spec.c_in
            )
            b_rows = slice(tile.index * spec.c_in, (tile.index + 1) * spec.c_in)
            accumulator += a_stage @ flat_b[b_rows, cols]
        for i, row in enumerate(rows):
            output[row, cols] = accumulator[i]
            write_counts[row, cols] += 1


class BlockedChannelLastKernel:
    """The baseline: window-region staging + crossbar gathers, functionally."""

    def __init__(self, tile_m: int = 64, tile_n: int = 64):
        if tile_m <= 0 or tile_n <= 0:
            raise ValueError("tile dims must be positive")
        self.tile_m = tile_m
        self.tile_n = tile_n
        self.stats = KernelStats()

    def run(
        self, ifmap: np.ndarray, weights: np.ndarray, spec: ConvSpec, verify: bool = True
    ) -> np.ndarray:
        if ifmap.shape != spec.ifmap_shape:
            raise ValueError(f"ifmap shape {ifmap.shape} != {spec.ifmap_shape}")
        padded = pad_ifmap(ifmap, spec.padding).astype(np.float64)
        flat_b = flatten_filters(weights, spec, ColumnOrder.CHANNEL_LAST).astype(np.float64)
        m_total = spec.lowered_rows()
        output = np.zeros((m_total, spec.c_out))
        write_counts = np.zeros((m_total, spec.c_out), dtype=np.int64)

        for m0 in range(0, m_total, self.tile_m):
            rows = list(range(m0, min(m0 + self.tile_m, m_total)))
            region = self._stage_region(spec, padded, rows)
            for n0 in range(0, spec.c_out, self.tile_n):
                cols = slice(n0, min(n0 + self.tile_n, spec.c_out))
                self.stats.thread_blocks += 1
                a_stage = self._crossbar_gather(spec, region, rows)
                block = a_stage @ flat_b[:, cols]
                for i, row in enumerate(rows):
                    output[row, cols] = block[i]
                    write_counts[row, cols] += 1
        self.stats.output_writes = int(write_counts.sum())
        self.stats.duplicate_output_writes = int((write_counts > 1).sum())
        if verify:
            reference = direct_conv2d(ifmap, weights, spec)
            produced = np.ascontiguousarray(
                output.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
            )
            if not np.allclose(produced, reference):
                raise AssertionError("blocked channel-last kernel diverged")
        return np.ascontiguousarray(
            output.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
        )

    def _stage_region(self, spec, padded, rows):
        """Stage the full input rows covering these outputs' windows —
        the channel-last design's input-geometry-bound footprint."""
        needed_rows: Dict[int, set] = {}
        for row in rows:
            n, oy, ox = _row_coords(spec, row)
            for r in range(spec.h_filter):
                needed_rows.setdefault(n, set()).add(oy * spec.stride + r * spec.dilation)
        region = {}
        width = padded.shape[3]
        for n, y_values in needed_rows.items():
            for y in y_values:
                region[(n, y)] = padded[n, :, y, :]
                self.stats.global_elements_loaded += spec.c_in * width
        self.stats.shared_high_water_elements = max(
            self.stats.shared_high_water_elements,
            len(region) * spec.c_in * width,
        )
        return region

    def _crossbar_gather(self, spec, region, rows):
        """Form the channel-last lowered rows from the staged region."""
        k_total = spec.c_in * spec.positions
        a_stage = np.empty((len(rows), k_total))
        for i, row in enumerate(rows):
            n, oy, ox = _row_coords(spec, row)
            for c in range(spec.c_in):
                for r in range(spec.h_filter):
                    for s in range(spec.w_filter):
                        y = oy * spec.stride + r * spec.dilation
                        x = ox * spec.stride + s * spec.dilation
                        k = (c * spec.h_filter + r) * spec.w_filter + s
                        a_stage[i, k] = region[(n, y)][c, x]
        return a_stage
