"""TPUSim: a configurable cycle-level simulator of a TPU-v2-like core
(128x128 weight-stationary systolic array, 128 vector memories, HBM), plus
the channel-first implicit im2col schedule that runs convs on it."""

from .config import TPUConfig, TPU_V2
from .systolic_array import CycleAccurateArray, TileCycles, gemm_tile_cycles
from .vector_memory import FunctionalVectorMemory, PortAccounting, VectorMemoryModel
from .address_gen import skewed_schedule, tile_word_offsets
from .dma import FillEngine
from .scheduler import (
    ScheduleResult,
    WorkItem,
    channel_first_schedule,
    execute_schedule,
    gemm_schedule,
    ifmap_rows_per_block,
)
from .simulator import LayerResult, NetworkResult, TPUSim
from .energy import EnergyBreakdown, EnergyModel
from .channel_last_schedule import channel_last_tpu_schedule, simulate_conv_channel_last
from .multicore import MultiCoreResult, scaling_efficiency, simulate_conv_multicore
from .network_scheduler import (
    ResidencyDecision,
    plan_residency,
    residency_traffic_saved_bytes,
    simulate_network_resident,
)
from .dual_mxu import port_budget_allows, simulate_conv_dual_mxu
from .sparse_schedule import simulate_conv_sparse, sparse_channel_first_schedule
from .explicit_schedule import ExplicitTPUResult, simulate_conv_explicit_tpu
from .functional_pipeline import FunctionalPipeline, PipelineStats, run_fig10_example
from .vector_unit import skew_restore_cycles, skewed_layout_overhead

__all__ = [
    "TPUConfig",
    "TPU_V2",
    "CycleAccurateArray",
    "TileCycles",
    "gemm_tile_cycles",
    "FunctionalVectorMemory",
    "PortAccounting",
    "VectorMemoryModel",
    "skewed_schedule",
    "tile_word_offsets",
    "FillEngine",
    "ScheduleResult",
    "WorkItem",
    "channel_first_schedule",
    "execute_schedule",
    "gemm_schedule",
    "ifmap_rows_per_block",
    "LayerResult",
    "NetworkResult",
    "TPUSim",
    "EnergyBreakdown",
    "EnergyModel",
    "channel_last_tpu_schedule",
    "simulate_conv_channel_last",
    "MultiCoreResult",
    "scaling_efficiency",
    "simulate_conv_multicore",
    "FunctionalPipeline",
    "PipelineStats",
    "run_fig10_example",
    "ExplicitTPUResult",
    "ResidencyDecision",
    "plan_residency",
    "residency_traffic_saved_bytes",
    "simulate_network_resident",
    "simulate_conv_sparse",
    "sparse_channel_first_schedule",
    "port_budget_allows",
    "simulate_conv_dual_mxu",
    "simulate_conv_explicit_tpu",
    "skew_restore_cycles",
    "skewed_layout_overhead",
]
