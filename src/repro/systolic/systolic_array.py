"""Weight-stationary systolic array: cycle-accurate model + closed-form cycles.

Two fidelity levels, as described in DESIGN.md:

- :class:`CycleAccurateArray` simulates the PE grid register-by-register,
  cycle-by-cycle.  It exists to validate the *dataflow*: inputs enter each
  row skewed by one cycle (exactly what the TPU's per-row address generators
  produce, Sec. IV-A), partial sums ripple down the columns, and outputs
  emerge skewed from the bottom edge.  It is used at small scale (the Fig 10
  / Fig 11 worked examples and the tests); its numerics are checked against
  plain matrix multiplication.

- :func:`gemm_tile_cycles` gives the closed-form cycle counts the
  event-driven layer simulator uses: per weight tile, the array is
  busy for ``weight_load + M + K_t + N_t + setup`` cycles (load the
  stationary tile, stream M rows, fill/drain the pipeline).  The cycle-exact
  model's counts match the closed form exactly for single tiles — a test
  asserts this — which is what licenses using the closed form at scale.

Dataflow conventions (matching Fig 9/10 of the paper):

- The array computes ``C[M,N] = A[M,K] @ B[K,N]`` with ``B`` stationary:
  PE(k, n) holds ``B[k, n]``.
- ``A`` enters from the left edge: row ``k`` of the array consumes the
  stream ``A[0,k], A[1,k], ...``, delayed by ``k`` cycles (the skew).
- Partial sums flow downward; column ``n`` emits ``C[m, n]`` from the bottom
  edge at cycle ``m + K + n`` (0-indexed, counting from the first input
  cycle after weights are loaded).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .config import TPUConfig

__all__ = ["CycleAccurateArray", "TileCycles", "gemm_tile_cycles"]


class CycleAccurateArray:
    """Register-level weight-stationary array of ``rows x cols`` PEs.

    Usage::

        arr = CycleAccurateArray(rows=4, cols=4)
        cycles = arr.load_weights(B)         # B is (K, N), K<=rows, N<=cols
        C, compute_cycles = arr.run(A)       # A is (M, K)

    ``run`` executes the whole pipeline (skewed injection, ripple, skewed
    drain) and returns the exact cycle count from first input to last output.
    """

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._weights: np.ndarray = None
        self._k = 0
        self._n = 0

    def load_weights(self, b: np.ndarray) -> int:
        """Install a stationary tile; returns weight-load cycles (= K rows).

        Real hardware shifts the tile in row-by-row from the top, occupying
        the array for K cycles; we install it instantly but charge K cycles.
        """
        if b.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {b.shape}")
        k, n = b.shape
        if k > self.rows or n > self.cols:
            raise ValueError(f"tile {b.shape} exceeds array {self.rows}x{self.cols}")
        self._weights = b.astype(np.float64)
        self._k, self._n = k, n
        return k

    def run(self, a: np.ndarray) -> Tuple[np.ndarray, int]:
        """Stream ``A`` (M, K) through the loaded tile; return (C, cycles).

        The simulation advances global cycles; at cycle ``t`` row ``k``
        ingests ``A[t - k, k]`` (the skew).  Each PE(k, n) holds an input
        register and forwards its partial-sum downward every cycle.  Output
        ``C[m, n]`` is captured at the bottom of column ``n`` on cycle
        ``m + K + n``; the de-serialisers de-skew it.  Cycle count is the
        drain cycle of the last output: ``(M - 1) + K + (N_t - 1) + 1``.
        """
        if self._weights is None:
            raise RuntimeError("load_weights must be called before run")
        if a.ndim != 2 or a.shape[1] != self._k:
            raise ValueError(f"A shape {a.shape} incompatible with K={self._k}")
        a = a.astype(np.float64)
        m = a.shape[0]
        k, n = self._k, self._n
        # Per-PE state: input register (value flowing right) and psum register
        # (value flowing down).  We only simulate the occupied k x n corner.
        input_reg = np.zeros((k, n))
        input_valid = np.zeros((k, n), dtype=bool)
        psum_reg = np.zeros((k, n))
        psum_valid = np.zeros((k, n), dtype=bool)
        out = np.zeros((m, n))
        total_cycles = (m - 1) + k + (n - 1) + 1
        for t in range(total_cycles):
            # Capture bottom-edge outputs *before* the shift: the psum leaving
            # row k-1 at cycle t is C[t - k - n_col + ... ]; concretely column
            # n_col emits C[mm, n_col] at cycle mm + k + n_col - 1 (post-update
            # capture below uses t directly).
            # 1. Shift psums down and inputs right (top/left inject new data).
            new_input = np.zeros_like(input_reg)
            new_input_valid = np.zeros_like(input_valid)
            new_psum = np.zeros_like(psum_reg)
            new_psum_valid = np.zeros_like(psum_valid)
            # inputs move right
            new_input[:, 1:] = input_reg[:, :-1]
            new_input_valid[:, 1:] = input_valid[:, :-1]
            # left edge injection with skew: row kk reads A[t - kk, kk]
            for kk in range(k):
                mm = t - kk
                if 0 <= mm < m:
                    new_input[kk, 0] = a[mm, kk]
                    new_input_valid[kk, 0] = True
            # psums move down (row 0 receives zero-valid when its input is valid)
            new_psum[1:, :] = psum_reg[:-1, :]
            new_psum_valid[1:, :] = psum_valid[:-1, :]
            # 2. MAC: every PE with a valid input adds input*weight to the
            # psum passing through it this cycle.
            mac_mask = new_input_valid
            new_psum = np.where(mac_mask, new_psum + new_input * self._weights, new_psum)
            new_psum_valid = new_psum_valid | mac_mask
            # 3. Bottom edge: the psum in row k-1 after this cycle's MAC is a
            # completed C element (it has accumulated all k taps).
            for nn in range(n):
                if new_psum_valid[k - 1, nn]:
                    mm = t - (k - 1) - nn
                    if 0 <= mm < m:
                        out[mm, nn] = new_psum[k - 1, nn]
            input_reg, input_valid = new_input, new_input_valid
            psum_reg, psum_valid = new_psum, new_psum_valid
        return out, total_cycles


@dataclasses.dataclass(frozen=True)
class TileCycles:
    """Cycle breakdown of one stationary-weight tile's execution."""

    weight_load: float
    stream: float
    pipeline: float
    setup: float

    @property
    def total(self) -> float:
        return self.weight_load + self.stream + self.pipeline + self.setup


def gemm_tile_cycles(m: int, k_t: int, n_t: int, config: TPUConfig) -> TileCycles:
    """Closed-form cycles for one ``(k_t x n_t)`` tile streaming ``m`` rows.

    ``weight_load = k_t`` (tile shifts in row by row), ``stream = m`` (one
    input row per cycle in steady state), ``pipeline = k_t + n_t - 1``
    (fill + drain skew), plus fixed per-tile setup.  Matches
    :class:`CycleAccurateArray` exactly: ``run`` returns
    ``m + k_t + n_t - 1`` and ``load_weights`` returns ``k_t``.
    """
    if m <= 0 or k_t <= 0 or n_t <= 0:
        raise ValueError("tile dims must be positive")
    if k_t > config.array_rows or n_t > config.array_cols:
        raise ValueError(
            f"tile {k_t}x{n_t} exceeds array {config.array_rows}x{config.array_cols}"
        )
    return TileCycles(
        weight_load=k_t * config.weight_load_cycles_per_row,
        stream=float(m),
        pipeline=float(k_t + n_t - 1),
        setup=config.tile_setup_cycles,
    )
