"""The tensor-core GPU substrate: a V100-like timing model and the three
convolution paths the paper compares — explicit im2col, implicit
channel-last (Lym-et-al.-style, the cuDNN stand-in's engine) and our
block-level implicit channel-first (Sec. V)."""

from .config import GPUConfig, TileConfig, V100
from .tensor_core import ComputeTime, padded_macs, tc_gemm_compute_seconds, wave_count
from .shared_memory import (
    channel_first_fill_bytes,
    channel_last_fill_bytes,
    gemm_a_traffic_bytes,
    gemm_b_traffic_bytes,
    gemm_c_traffic_bytes,
)
from .blocked_gemm import KernelTime, gemm_kernel_time, kernel_time
from .explicit import ExplicitConvResult, explicit_conv_time, im2col_transform_time
from .channel_last import channel_last_conv_time
from .channel_first import ChannelFirstGPUResult, channel_first_conv_time
from .cudnn_model import cudnn_conv_time
from .functional import (
    BlockedChannelFirstKernel,
    BlockedChannelLastKernel,
    KernelStats,
)
from .variants import (
    deformable_conv_time_channel_first,
    deformable_conv_time_fallback,
    dilated_conv_times,
)

__all__ = [
    "GPUConfig",
    "TileConfig",
    "V100",
    "ComputeTime",
    "padded_macs",
    "tc_gemm_compute_seconds",
    "wave_count",
    "channel_first_fill_bytes",
    "channel_last_fill_bytes",
    "gemm_a_traffic_bytes",
    "gemm_b_traffic_bytes",
    "gemm_c_traffic_bytes",
    "KernelTime",
    "gemm_kernel_time",
    "kernel_time",
    "ExplicitConvResult",
    "explicit_conv_time",
    "im2col_transform_time",
    "channel_last_conv_time",
    "ChannelFirstGPUResult",
    "channel_first_conv_time",
    "cudnn_conv_time",
    "deformable_conv_time_channel_first",
    "deformable_conv_time_fallback",
    "dilated_conv_times",
    "BlockedChannelFirstKernel",
    "BlockedChannelLastKernel",
    "KernelStats",
]
