"""GPU (V100-like) configuration for the tensor-core substrate (Sec. V/VI).

The GPU experiments run FP16 on Volta-class tensor cores; this config
captures the handful of machine parameters the timing models consume.
Defaults are the public V100 SXM2 numbers: 80 SMs x 8 TCs at 1.53 GHz
(512 FP16 MACs/SM/cycle -> 125.4 TFLOPS peak), 96 KB shared memory per SM,
900 GB/s HBM2.
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError

__all__ = ["GPUConfig", "V100", "TileConfig"]


@dataclasses.dataclass(frozen=True)
class TileConfig:
    """Thread-block tiling of the output matrix in the blocked GEMM.

    Defaults mirror the cudaTensorCoreGemm-style kernel the paper builds on:
    a 128x128 output tile per thread block, marching over K in 32-wide
    chunks staged through shared memory.
    """

    tile_m: int = 128
    tile_n: int = 128
    tile_k: int = 32

    def __post_init__(self) -> None:
        for field in ("tile_m", "tile_n", "tile_k"):
            value = getattr(self, field)
            if value <= 0:
                raise ConfigError(
                    "tile dims must be positive", field=field, value=value
                )


@dataclasses.dataclass(frozen=True)
class GPUConfig:
    """Machine parameters of the simulated GPU."""

    num_sms: int = 80
    tensor_cores_per_sm: int = 8
    clock_ghz: float = 1.53
    # FP16 MACs per SM per cycle delivered by the TCs (8 TCs x 64 FMA).
    macs_per_sm_per_cycle: int = 512
    shared_mem_bytes_per_sm: int = 96 * 1024
    hbm_bandwidth_gbps: float = 900.0
    elem_bytes: int = 2  # FP16
    # Achievable fractions of peak, calibrated against public V100 behaviour:
    # large FP16 TC GEMMs sustain ~75-85% of peak; streaming kernels ~80-85%
    # of peak DRAM bandwidth.
    compute_efficiency: float = 0.80
    bandwidth_efficiency: float = 0.82
    # Shared-memory *staging* (the sliding-window / decomposed-tile gathers
    # behind the implicit im2col paths) achieves a lower fraction of peak
    # DRAM bandwidth than a pure stream: short strided gathers, address
    # generation and TB-level synchronisation.  This is the latency the
    # paper's Fig 3 pictures as "SRAM filling time".
    staging_efficiency: float = 0.45
    # The channel-first path's staging reads whole C_I x N channel vectors
    # (dense, coalesced); the channel-last sliding-window gather cannot, so
    # channel-first staging lands this factor closer to streaming speed.
    channel_first_staging_bonus: float = 1.0
    # L2 capacity: an operand smaller than this is fetched from DRAM once
    # regardless of how many thread blocks re-read it.
    l2_bytes: int = 6 * 1024 * 1024
    # Fixed kernel-launch + tail latency per kernel, seconds.
    kernel_overhead_s: float = 4.0e-6
    tile: TileConfig = dataclasses.field(default_factory=TileConfig)
    # Thread blocks an SM can keep resident (occupancy), bounding the wave
    # size; with two 128x128 FP16 double-buffered tiles per SM shared memory
    # is the limiter on V100.
    max_tbs_per_sm: int = 2

    def __post_init__(self) -> None:
        for field in ("num_sms", "tensor_cores_per_sm"):
            value = getattr(self, field)
            if value <= 0:
                raise ConfigError(
                    "SM/TC counts must be positive", field=field, value=value
                )
        if self.clock_ghz <= 0:
            raise ConfigError(
                "clock must be positive", field="clock_ghz", value=self.clock_ghz
            )
        if self.macs_per_sm_per_cycle <= 0:
            raise ConfigError(
                "MAC rate must be positive",
                field="macs_per_sm_per_cycle", value=self.macs_per_sm_per_cycle,
            )
        for field in (
            "compute_efficiency", "bandwidth_efficiency", "staging_efficiency"
        ):
            value = getattr(self, field)
            if not 0 < value <= 1:
                raise ConfigError(
                    "efficiencies must be in (0, 1]", field=field, value=value
                )
        if self.l2_bytes < 0:
            raise ConfigError(
                "l2_bytes must be non-negative", field="l2_bytes", value=self.l2_bytes
            )
        if self.hbm_bandwidth_gbps <= 0:
            raise ConfigError(
                "bandwidth must be positive",
                field="hbm_bandwidth_gbps", value=self.hbm_bandwidth_gbps,
            )

    @property
    def peak_macs_per_s(self) -> float:
        return self.num_sms * self.macs_per_sm_per_cycle * self.clock_ghz * 1e9

    @property
    def sustained_macs_per_s(self) -> float:
        return self.peak_macs_per_s * self.compute_efficiency

    @property
    def sustained_bandwidth_bps(self) -> float:
        return self.hbm_bandwidth_gbps * 1e9 * self.bandwidth_efficiency

    @property
    def staging_bandwidth_bps(self) -> float:
        """Effective DRAM bandwidth of the implicit paths' staging gathers."""
        return self.hbm_bandwidth_gbps * 1e9 * self.staging_efficiency


#: The canonical V100 configuration used by the evaluation.
V100 = GPUConfig()
