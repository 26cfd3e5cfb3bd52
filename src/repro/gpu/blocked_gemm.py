"""Blocked GEMM kernel timing: the engine under all three GPU conv paths.

A kernel's time is the classic overlap bound

    time = max(compute_seconds, memory_seconds) + kernel_overhead

with compute from :mod:`repro.gpu.tensor_core` (tile/wave quantisation) and
memory = DRAM traffic / sustained bandwidth.  The conv paths reuse
:func:`kernel_time` and differ only in the A-side traffic they report.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable

from ..audit import auditor as _audit
from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec, GemmShape
from ..perf.cache import SIM_CACHE, config_key, spec_key
from ..trace import metrics as trace_metrics
from ..trace import tracer as trace
from .config import GPUConfig
from .shared_memory import (
    gemm_a_traffic_bytes,
    gemm_b_traffic_bytes,
    gemm_c_traffic_bytes,
)
from .tensor_core import tc_gemm_compute_seconds

__all__ = ["KernelTime", "kernel_time", "gemm_kernel_time"]


@dataclasses.dataclass(frozen=True)
class KernelTime:
    """Timing outcome of one GPU kernel."""

    name: str
    seconds: float
    compute_seconds: float
    memory_seconds: float
    traffic_bytes: int
    macs: int

    @property
    def bound(self) -> str:
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"

    @property
    def tflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return 2 * self.macs / self.seconds / 1e12

    def scaled(self, factor: float, name: str = None) -> "KernelTime":
        """A copy with total time scaled (vendor-efficiency adjustments)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return dataclasses.replace(
            self, seconds=self.seconds * factor, name=name or self.name
        )


def kernel_time(
    name: str,
    m: int,
    k: int,
    n: int,
    traffic_bytes: int,
    config: GPUConfig,
    macs: int = None,
    staged_bytes: int = 0,
) -> KernelTime:
    """Overlap-bound kernel timing for an ``MxKxN``-shaped kernel.

    ``traffic_bytes`` is streamed DRAM traffic priced at the sustained
    streaming bandwidth; ``staged_bytes`` is shared-memory staging traffic
    (the implicit paths' gathers) priced at the lower staging bandwidth.
    ``macs`` defaults to the logical ``m*k*n`` (pass the algorithmic count
    when padding differs).
    """
    if staged_bytes < 0 or traffic_bytes < 0:
        raise ValueError("traffic must be non-negative")
    compute = tc_gemm_compute_seconds(m, k, n, config)
    memory_seconds = (
        traffic_bytes / config.sustained_bandwidth_bps
        + staged_bytes / config.staging_bandwidth_bps
    )
    seconds = max(compute.seconds, memory_seconds) + config.kernel_overhead_s
    return KernelTime(
        name=name,
        seconds=seconds,
        compute_seconds=compute.seconds,
        memory_seconds=memory_seconds,
        traffic_bytes=traffic_bytes + staged_bytes,
        macs=macs if macs is not None else m * k * n,
    )


def price_kernel(
    source: str, model: Callable, problem: Any, config: GPUConfig, *args: Any,
    check: Callable = audit_invariants.check_gpu_kernel, publish: Callable = None,
) -> Any:
    """The tail every GPU answer runs: memo, audit, publish, record.

    ``model(problem, config, *args)`` runs on a memo miss only, keyed without
    the problem's name (:func:`spec_key`).  Hits are audited like misses:
    ``check(value, config)``, plus ``diff.cache-coherence`` once per key at
    ``--audit full``.  ``publish`` derives the answer from the audited value
    (the cuDNN stand-in's noise); it is recorded under ``source``.
    """
    key = (source, config_key(config), spec_key(problem)) + args
    compute = functools.partial(model, problem, config, *args)
    label = problem.describe() if isinstance(problem, ConvSpec) else repr(problem)
    with trace.span(f"{source}.time", layer=label):
        value = SIM_CACHE.get_or_compute(key, compute)
    if _audit.enabled():
        check(value, config)
        if _audit.full():
            audit_differential.verify_kernel(key, value, compute, problem, config)
    if publish is not None:
        value = publish(value)
    trace_metrics.record_kernel(source, label, value.seconds, value.tflops)
    return value


def _gemm_kernel(shape: GemmShape, config: GPUConfig, name: str) -> KernelTime:
    traffic = (
        gemm_a_traffic_bytes(shape.m, shape.k, shape.n, config)
        + gemm_b_traffic_bytes(shape.m, shape.k, shape.n, config)
        + gemm_c_traffic_bytes(shape.m, shape.n, config)
    )
    return kernel_time(name, shape.m, shape.k, shape.n, traffic, config, macs=shape.macs)


def gemm_kernel_time(shape: GemmShape, config: GPUConfig, name: str = "gemm") -> KernelTime:
    """A plain DRAM-resident GEMM — the "GEMM-only" reference of Fig 4a and
    the compute half of the explicit-im2col path."""
    return price_kernel("gpu.gemm", _gemm_kernel, shape, config, name)
