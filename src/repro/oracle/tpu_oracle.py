"""TPU-v2 measurement stand-in: an independent analytic performance model.

Role (see DESIGN.md substitutions): the paper validates TPUSim against real
cloud TPU-v2 boards (Figs 13, 14b, 15).  Offline, this oracle plays the
hardware.  It is deliberately built from *different abstractions* than the
simulator — closed-form throughput/roofline arithmetic instead of an
event-driven tile pipeline — so the validation compares two independently
constructed models of the same machine:

- compute: each stationary-tile pass streams ``max(M, array)`` cycles, with
  K/N padded to array multiples and one pipeline fill charged per pass
  sequence;
- memory: compulsory traffic (operands once, multi-tile duplication charged)
  at peak bandwidth with a fragmentation surcharge for strided patterns;
- the inferred multi-tile policy ``MIN(array/C_I, W_F)`` (Fig 14b);
- deterministic measurement noise (default ±7.5%) standing in for run-to-run
  and unmodelled microarchitectural variation; the paper's reported 4-6%
  average simulator-vs-hardware errors set this scale.
"""

from __future__ import annotations

import dataclasses
import math

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.tiling import tpu_multi_tile_policy
from ..systolic.config import TPUConfig, TPU_V2
from .noise import deterministic_noise

__all__ = ["TPUv2Oracle"]


@dataclasses.dataclass(frozen=True)
class TPUv2Oracle:
    """The "hardware": measured cycles for GEMM and CONV workloads."""

    config: TPUConfig = TPU_V2
    noise_amplitude: float = 0.075
    seed: int = 2021

    # ------------------------------------------------------------- primitives
    def measured_gemm_cycles(self, shape: GemmShape) -> float:
        """Measured execution cycles of one GEMM on the TPU-v2 (Fig 13a)."""
        cfg = self.config
        k_passes = math.ceil(shape.k / cfg.array_rows)
        n_passes = math.ceil(shape.n / cfg.array_cols)
        compute = k_passes * n_passes * max(shape.m, cfg.array_rows)
        compute += cfg.array_rows + cfg.array_cols  # pipeline fill/drain, once
        elem = cfg.compute_elem_bytes
        traffic = elem * (shape.m * shape.k + shape.k * shape.n + shape.m * shape.n)
        memory = traffic / cfg.hbm.bytes_per_cycle
        base = max(compute, memory) + 500.0  # dispatch/launch overhead
        return base * (1.0 + self._noise(f"gemm:{shape.m}x{shape.k}x{shape.n}"))

    def measured_conv_cycles(self, spec: ConvSpec) -> float:
        """Measured execution cycles of one CONV layer (Figs 13b/14b/15)."""
        cfg = self.config
        group = tpu_multi_tile_policy(spec, cfg.array_rows)
        groups = spec.h_filter * math.ceil(spec.w_filter / group)
        tiles_in_group = min(group, spec.w_filter)
        merged_k = tiles_in_group * spec.c_in
        k_passes = math.ceil(merged_k / cfg.array_rows)
        n_passes = math.ceil(spec.c_out / cfg.array_cols)
        m = spec.lowered_rows()
        compute = groups * k_passes * n_passes * max(m, cfg.array_rows)
        compute += cfg.array_rows + cfg.array_cols
        elem = cfg.compute_elem_bytes
        # IFMap is re-staged once per decomposed filter (multi-tile
        # duplication exactly cancels the group-count reduction), weights and
        # OFMap move once.
        ifmap_traffic = spec.positions * m * spec.c_in * elem
        traffic = ifmap_traffic + spec.filter_bytes(elem) + spec.ofmap_bytes(elem)
        fragmentation = 1.0 if spec.stride == 1 and spec.dilation == 1 else 1.35
        memory = traffic * fragmentation / cfg.hbm.bytes_per_cycle
        base = max(compute, memory) + 500.0
        return base * (1.0 + self._noise(f"conv:{spec.describe()}"))

    # -------------------------------------------------------------- derived
    def measured_conv_tflops(self, spec: ConvSpec) -> float:
        cycles = self.measured_conv_cycles(spec)
        return 2 * spec.macs * self.config.clock_ghz / cycles / 1e3

    def measured_network_cycles(self, layers) -> float:
        return sum(self.measured_conv_cycles(layer) for layer in layers)

    def _noise(self, key: str) -> float:
        return deterministic_noise(key, self.noise_amplitude, self.seed)
