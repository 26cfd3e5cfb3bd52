"""V100/cuDNN measurement stand-in, mirroring :mod:`repro.oracle.tpu_oracle`.

Thin facade over the cuDNN model so experiments address both "hardware"
oracles through the same vocabulary (`measured_*`).  Also provides the
measured explicit-im2col decomposition used by Fig 2 (where the paper reads
GEMM time and transform time off the profiler).
"""

from __future__ import annotations

import dataclasses

from ..core.conv_spec import ConvSpec
from ..gpu.config import GPUConfig, V100
from ..gpu.cudnn_model import cudnn_conv_time
from ..gpu.explicit import ExplicitConvResult, explicit_conv_time
from .noise import deterministic_noise

__all__ = ["GPUOracle"]


@dataclasses.dataclass(frozen=True)
class GPUOracle:
    """Measured V100 numbers for implicit (cuDNN) and explicit conv paths."""

    config: GPUConfig = V100
    noise_amplitude: float = 0.015
    seed: int = 2021

    def measured_implicit_seconds(self, spec: ConvSpec) -> float:
        """cuDNN IMPLICIT_PRECOMP_GEMM time (the Fig 2a/17/18 baseline)."""
        return cudnn_conv_time(
            spec, self.config, noise_amplitude=self.noise_amplitude, seed=self.seed
        ).seconds

    def measured_explicit(self, spec: ConvSpec) -> ExplicitConvResult:
        """Explicit path with its transform/GEMM split, noise applied to both
        kernels independently (they are separate profiler entries)."""
        base = explicit_conv_time(spec, self.config)
        t_factor = 1.0 + deterministic_noise(
            f"xform:{spec.describe()}", self.noise_amplitude, self.seed
        )
        g_factor = 1.0 + deterministic_noise(
            f"xgemm:{spec.describe()}", self.noise_amplitude, self.seed
        )
        return ExplicitConvResult(
            transform=base.transform.scaled(t_factor),
            gemm=base.gemm.scaled(g_factor),
            workspace_bytes=base.workspace_bytes,
        )
