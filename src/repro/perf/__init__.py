"""Performance layer: one schedule engine + simulation memoization.

Two orthogonal accelerations for the whole evaluation harness, both with a
bit-exactness contract against the per-item reference scheduler (the
scalar oracle):

- :mod:`repro.perf.batch` — the schedule engine: builds struct-of-arrays
  schedules (:class:`ScheduleArrays`, :mod:`repro.perf.schedule_arrays`)
  for a batch of layers with shared pricing and executes them as one
  segmented NumPy recurrence; a single layer is a batch of one
  (:func:`execute_schedule_arrays`);
- :mod:`repro.perf.cache` — a process-wide memo for simulation results,
  keyed by structural fingerprints of configs and problem specs.

See DESIGN.md ("Performance architecture") for the invariants.
"""

from .cache import (
    CacheStats,
    SIM_CACHE,
    SimulationCache,
    cache_stats,
    canonical_layout,
    canonical_spec,
    clear_cache,
    config_key,
    conv_keys,
    fingerprint,
    set_cache_enabled,
    spec_key,
)
from .schedule_arrays import (
    ScheduleArrays,
    execute_schedule_arrays,
    pipeline_free_times_segmented,
    schedule_construction_count,
)
from .batch import (
    BatchPricer,
    conv_schedule_batch,
    execute_schedule_batch,
    gemm_schedule_batch,
)

__all__ = [
    "CacheStats",
    "SIM_CACHE",
    "SimulationCache",
    "cache_stats",
    "canonical_layout",
    "canonical_spec",
    "clear_cache",
    "config_key",
    "conv_keys",
    "fingerprint",
    "set_cache_enabled",
    "spec_key",
    "ScheduleArrays",
    "execute_schedule_arrays",
    "pipeline_free_times_segmented",
    "schedule_construction_count",
    "BatchPricer",
    "conv_schedule_batch",
    "execute_schedule_batch",
    "gemm_schedule_batch",
]
