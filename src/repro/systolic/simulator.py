"""TPUSim: the configurable cycle-level TPU simulator (Sec. VI, Tbl. II).

Public entry points:

- :meth:`TPUSim.simulate_conv` — timing of one CONV layer under the
  channel-first implicit im2col schedule (with the multi-tile policy).
- :meth:`TPUSim.simulate_gemm` — timing of a plain GEMM primitive.
- :meth:`TPUSim.simulate_network` — a whole network's conv layers.
- :meth:`TPUSim.run_functional_conv` — *functional* execution of a conv
  through the actual merged-GEMM tile sequence on the register-level
  :class:`~repro.systolic.systolic_array.CycleAccurateArray`, cross-checked
  against the numpy reference.  Used at small scale; it is the end-to-end
  proof that the schedule the timing model prices computes the right thing.

Timing results come from the two-resource pipeline of
:mod:`repro.systolic.scheduler`, built and executed by the schedule engine
(:mod:`repro.perf.batch`; one layer is a batch of one); see DESIGN.md
("Two fidelity levels").
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.channel_first import decompose
from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.reference import direct_conv2d
from ..core.tiling import plan_multi_tile, tpu_multi_tile_policy
from ..perf.cache import (
    SIM_CACHE,
    canonical_layout,
    canonical_spec,
    config_key,
    spec_key,
)

# Module binding (not named imports): repro.perf.schedule_arrays imports the
# systolic scheduler back, so grabbing names here would break whichever
# package imports first.  The module object resolves cleanly either way.
from ..audit import auditor as audit
from ..errors import AuditFault
from ..perf import batch as perf_batch
from ..perf import schedule_arrays as perf_schedules
from ..trace import metrics as trace_metrics
from ..trace import tracer as trace
from .config import TPUConfig, TPU_V2
from .dma import FillEngine
from .scheduler import ScheduleResult, channel_first_schedule, gemm_schedule
from .systolic_array import CycleAccurateArray

__all__ = ["LayerResult", "NetworkResult", "TPUSim"]


def _boundary_macs(value, label: str) -> int:
    """Cast a MAC total to ``int`` exactly once, at the simulator boundary.

    MAC counts are integral by construction; a fractional (or silently
    rounded ``float``) value here means some accumulation drifted — e.g. a
    sum carried through ``float64`` past 2**53.  Always on: one comparison
    per layer.
    """
    as_int = int(value)
    if as_int != value:
        raise AuditFault(
            f"non-integral MAC total at the simulator boundary for {label}",
            invariant="tpu.macs.integral",
            expected="an exact integer",
            actual=value,
        )
    return as_int


@dataclasses.dataclass(frozen=True)
class LayerResult:
    """Timing outcome for one layer (or one GEMM primitive)."""

    name: str
    cycles: float
    tflops: float
    utilization: float
    compute_cycles: float
    dma_cycles: float
    exposed_dma_cycles: float
    macs: int
    group_size: int = 1

    # Cycles are the unit of record (config-independent once produced);
    # seconds exist only through the explicit conversion below.
    def latency_s(self, clock_ghz: float) -> float:
        return self.cycles / (clock_ghz * 1e9)


@dataclasses.dataclass(frozen=True)
class NetworkResult:
    """Aggregate over a network's conv layers."""

    name: str
    layers: Sequence[LayerResult]

    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def tflops(self, clock_ghz: float) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return 2 * self.total_macs * clock_ghz / self.total_cycles / 1e3

    def latency_s(self, clock_ghz: float) -> float:
        return self.total_cycles / (clock_ghz * 1e9)


class TPUSim:
    """The simulator facade.

    One instance binds a :class:`TPUConfig`; experiments sweep configs by
    constructing new instances (cheap — all state lives in the config and
    the stateless fill engine).
    """

    def __init__(self, config: TPUConfig = TPU_V2):
        self.config = config
        self.engine = FillEngine(config)

    # ------------------------------------------------------------------ conv
    def simulate_conv(
        self,
        spec: ConvSpec,
        group_size: Optional[int] = None,
        layout: Layout = Layout.NHWC,
    ) -> LayerResult:
        """Timing of one conv layer under channel-first implicit im2col.

        ``group_size=None`` applies the inferred TPU policy
        ``MIN(array/C_I, W_F)``; pass an explicit value to sweep the
        parameter (Fig 14a).
        """
        resolved_group = (
            group_size
            if group_size is not None
            else tpu_multi_tile_policy(spec, self.config.array_rows)
        )
        name = spec.describe() or "conv"

        def compute() -> LayerResult:
            with trace.span("tpu.conv.simulate", layer=name, group_size=resolved_group):
                outcome = perf_schedules.execute_schedule_arrays(
                    self._conv_schedule(spec, resolved_group, layout)
                )
                return self._layer_result(name, spec.macs, outcome, resolved_group)

        key = ("tpu-conv", config_key(self.config), spec_key(spec), resolved_group, layout.value)
        result = SIM_CACHE.get_or_compute(
            key, compute, canonical_key=self._conv_canonical_key(spec, resolved_group, layout)
        )
        # Post-cache on purpose: cache hits (and stale/corrupt cache entries)
        # are audited exactly like fresh computations.
        return self._finish_conv_result(spec, result, key, resolved_group, layout)

    def _conv_schedule(self, spec: ConvSpec, group_size: int, layout: Layout):
        """One conv layer's schedule: a batch of one through the engine."""
        return perf_batch.conv_schedule_batch(
            [(spec, group_size)], self.config, self.engine, layout=layout
        )[0]

    def _gemm_schedule(self, shape: GemmShape):
        """One GEMM's schedule: a batch of one through the engine."""
        return perf_batch.gemm_schedule_batch([shape], self.config, self.engine)[0]

    def _conv_canonical_key(
        self, spec: ConvSpec, resolved_group: int, layout: Layout
    ) -> tuple:
        """Symmetry-folded cache key: timing-equivalent specs share it.

        ``canonical_spec`` folds the spec's timing symmetries and
        ``canonical_layout`` folds the layout pairs that price identically
        (NHWC/HWCN, NCHW/CHWN).  The ``@c`` namespace also matches the one
        the residency scheduler publishes for its no-residency layers, so
        network-level and layer-level simulations share work.
        """
        canon, _ = canonical_spec(spec)
        return (
            "tpu-conv@c",
            config_key(self.config),
            spec_key(canon),
            resolved_group,
            canonical_layout(layout),
        )

    def _finish_conv_result(
        self,
        spec: ConvSpec,
        result: LayerResult,
        key: tuple,
        resolved_group: int,
        layout: Layout,
    ) -> LayerResult:
        """Relabel + audit + trace — the per-layer tail both paths share."""
        name = spec.describe() or "conv"
        if result.name != name:
            result = dataclasses.replace(result, name=name)
        if audit.enabled():
            from ..audit import invariants as audit_invariants

            audit_invariants.check_tpu_conv(
                spec, self.config, result,
                group_size=resolved_group, layout=layout,
            )
        if audit.full():
            from ..audit import differential as audit_differential

            audit_differential.verify_layer(
                key,
                result,
                lambda: self._conv_schedule(spec, resolved_group, layout),
                lambda: channel_first_schedule(
                    spec, self.config, self.engine,
                    group_size=resolved_group, layout=layout,
                ),
                config=self.config,
                layer=spec.name or "conv",
                spec=spec,
                group_size=resolved_group,
            )
        trace_metrics.record_layer("tpu.conv", result, key=key)
        return result

    def _finish_gemm_result(
        self, shape: GemmShape, name: str, result: LayerResult, key: tuple
    ) -> LayerResult:
        """Relabel + audit + trace — the per-GEMM tail both paths share."""
        if result.name != name:
            result = dataclasses.replace(result, name=name)
        if audit.enabled():
            from ..audit import invariants as audit_invariants

            audit_invariants.check_tpu_gemm(shape, self.config, result)
        if audit.full():
            from ..audit import differential as audit_differential

            audit_differential.verify_layer(
                key,
                result,
                lambda: self._gemm_schedule(shape),
                lambda: gemm_schedule(shape, self.config, self.engine),
                config=self.config,
                layer="gemm",
                shape=(shape.m, shape.n, shape.k),
            )
        trace_metrics.record_layer("tpu.gemm", result, key=key)
        return result

    def simulate_conv_batch(
        self,
        specs: Sequence[ConvSpec],
        group_size: Optional[int] = None,
        layout: Layout = Layout.NHWC,
    ) -> List[LayerResult]:
        """Timing of many conv layers through the batched schedule engine.

        Per-layer results are bit-identical to :meth:`simulate_conv`, and
        the cache sees the identical hit/miss stream the per-layer loop
        would have produced (duplicates inside the batch count as hits);
        only the construction/pricing work is amortized across the batch
        (:mod:`repro.perf.batch`).
        """
        specs = list(specs)
        if not specs:
            return []
        cfg = config_key(self.config)
        entries = []  # (spec, resolved, key, cached_result_or_None, job_index)
        jobs: List[tuple] = []
        job_keys: List[tuple] = []
        pending: Dict[tuple, int] = {}
        alias_later: List[tuple] = []
        for spec in specs:
            resolved = (
                group_size
                if group_size is not None
                else tpu_multi_tile_policy(spec, self.config.array_rows)
            )
            key = ("tpu-conv", cfg, spec_key(spec), resolved, layout.value)
            canonical = self._conv_canonical_key(spec, resolved, layout)
            cached = None
            job = None
            if SIM_CACHE.enabled:
                found, value = SIM_CACHE.probe(key, canonical)
                if found:
                    cached = value
                else:
                    job = pending.get(key)
                    if job is not None:
                        SIM_CACHE.note_pending_hit()
                    else:
                        job = pending.get(canonical)
                        if job is not None:
                            SIM_CACHE.note_pending_hit(canonical=True)
                            # The per-layer loop's probe would have aliased
                            # this exact key; do the same once the job lands.
                            alias_later.append((key, canonical, job))
                    if job is None:
                        job = len(jobs)
                        pending[key] = job
                        pending.setdefault(canonical, job)
                        jobs.append((spec, resolved))
                        job_keys.append((key, canonical))
            else:
                job = len(jobs)
                jobs.append((spec, resolved))
                job_keys.append((key, canonical))
            entries.append((spec, resolved, key, cached, job))

        job_results: List[LayerResult] = []
        if jobs:
            with trace.span(
                "tpu.conv.batch", jobs=len(jobs), layers=len(specs)
            ):
                schedules = perf_batch.conv_schedule_batch(
                    jobs, self.config, self.engine, layout=layout
                )
                outcomes = perf_batch.execute_schedule_batch(schedules)
            for (spec, resolved), (key, canonical), outcome in zip(
                jobs, job_keys, outcomes
            ):
                result = self._layer_result(
                    spec.describe() or "conv", spec.macs, outcome, resolved
                )
                SIM_CACHE.store(key, result, canonical)
                job_results.append(result)
            for key, canonical, job in alias_later:
                SIM_CACHE.store(key, job_results[job], canonical)

        return [
            self._finish_conv_result(
                spec,
                cached if cached is not None else job_results[job],
                key,
                resolved,
                layout,
            )
            for spec, resolved, key, cached, job in entries
        ]

    def simulate_gemm_batch(
        self, shapes: Sequence[GemmShape], name: str = "gemm"
    ) -> List[LayerResult]:
        """Timing of many GEMM primitives through the batched engine.

        Bit-identical per shape to :meth:`simulate_gemm`, with the same
        cache accounting as the equivalent per-shape loop.
        """
        shapes = list(shapes)
        if not shapes:
            return []
        cfg = config_key(self.config)
        entries = []
        jobs: List[GemmShape] = []
        job_keys: List[tuple] = []
        pending: Dict[tuple, int] = {}
        for shape in shapes:
            key = ("tpu-gemm", cfg, shape.m, shape.n, shape.k)
            cached = None
            job = None
            if SIM_CACHE.enabled:
                found, value = SIM_CACHE.probe(key)
                if found:
                    cached = value
                else:
                    job = pending.get(key)
                    if job is not None:
                        SIM_CACHE.note_pending_hit()
                    else:
                        job = len(jobs)
                        pending[key] = job
                        jobs.append(shape)
                        job_keys.append(key)
            else:
                job = len(jobs)
                jobs.append(shape)
                job_keys.append(key)
            entries.append((shape, key, cached, job))

        job_results: List[LayerResult] = []
        if jobs:
            with trace.span("tpu.gemm.batch", jobs=len(jobs), shapes=len(shapes)):
                schedules = perf_batch.gemm_schedule_batch(
                    jobs, self.config, self.engine
                )
                outcomes = perf_batch.execute_schedule_batch(schedules)
            for shape, key, outcome in zip(jobs, job_keys, outcomes):
                result = self._layer_result(name, shape.macs, outcome, 1)
                SIM_CACHE.store(key, result)
                job_results.append(result)

        return [
            self._finish_gemm_result(
                shape, name, cached if cached is not None else job_results[job], key
            )
            for shape, key, cached, job in entries
        ]

    def simulate_gemm(self, shape: GemmShape, name: str = "gemm") -> LayerResult:
        """Timing of a plain GEMM primitive (Fig 13a, Fig 4 reference)."""

        def compute() -> LayerResult:
            with trace.span("tpu.gemm.simulate", gemm=name):
                outcome = perf_schedules.execute_schedule_arrays(
                    self._gemm_schedule(shape)
                )
                return self._layer_result(name, shape.macs, outcome, 1)

        key = ("tpu-gemm", config_key(self.config), shape.m, shape.n, shape.k)
        result = SIM_CACHE.get_or_compute(key, compute)
        return self._finish_gemm_result(shape, name, result, key)

    def simulate_network(self, name: str, layers: Sequence[ConvSpec]) -> NetworkResult:
        layers = list(layers)
        with trace.span("tpu.network.simulate", network=name, layers=len(layers)):
            if all(type(layer) is ConvSpec for layer in layers):
                # Fast path: one batched construction + pricing pass for the
                # whole network (bit-identical per layer, same cache stream).
                results = self.simulate_conv_batch(layers)
            else:
                # Fallback for spec subclasses the batcher must not assume
                # anything about.
                results = [self.simulate_conv(layer) for layer in layers]
        return NetworkResult(name=name, layers=results)

    def _layer_result(
        self, name: str, true_macs: int, outcome: ScheduleResult, group_size: int
    ) -> LayerResult:
        """Assemble a result; TFLOPS counts *algorithmic* MACs (``true_macs``)
        over the simulated cycles, so padding/duplication inefficiency shows
        up as lost TFLOPS exactly as it does on real hardware."""
        cycles = outcome.total_cycles
        if not math.isfinite(cycles) or cycles < 0:
            raise AuditFault(
                f"non-finite or negative cycle count for {name}",
                invariant="tpu.cycles.finite",
                expected="a finite, non-negative float",
                actual=cycles,
            )
        macs = _boundary_macs(true_macs, name)
        tflops = (
            2 * macs * self.config.clock_ghz / cycles / 1e3 if cycles > 0 else 0.0
        )
        utilization = (
            macs / (self.config.peak_macs_per_cycle * cycles) if cycles > 0 else 0.0
        )
        return LayerResult(
            name=name,
            cycles=cycles,
            tflops=tflops,
            utilization=utilization,
            compute_cycles=outcome.compute_cycles,
            dma_cycles=outcome.dma_cycles,
            exposed_dma_cycles=outcome.exposed_dma_cycles,
            macs=macs,
            group_size=group_size,
        )

    # ------------------------------------------------------------ functional
    def run_functional_conv(
        self,
        spec: ConvSpec,
        ifmap: np.ndarray,
        weights: np.ndarray,
        group_size: Optional[int] = None,
        verify: bool = True,
    ) -> np.ndarray:
        """Execute a conv *functionally* through the scheduled tile sequence.

        Every multi-tile group's merged GEMM runs on the register-level
        weight-stationary array (split into array-sized K/N chunks), partial
        sums accumulate across groups exactly as the de-serializers would
        accumulate them in the vector memories, and the result is reshaped to
        the NCHW OFMap.  With ``verify=True`` the result is asserted equal to
        the direct-convolution reference.

        Intended for small shapes (it is register-level); the timing path is
        independent of this and scales to real layers.
        """
        from ..core.tiling import merged_gemm_operands

        group = (
            group_size
            if group_size is not None
            else tpu_multi_tile_policy(spec, self.config.array_rows)
        )
        groups = plan_multi_tile(spec, group, row_aligned=True)
        m = spec.lowered_rows()
        accumulator = np.zeros((m, spec.c_out))
        for grp in groups:
            a, b = merged_gemm_operands(ifmap, weights, spec, grp)
            merged_k = a.shape[1]
            for k0 in range(0, merged_k, self.config.array_rows):
                k_t = min(self.config.array_rows, merged_k - k0)
                for n0 in range(0, spec.c_out, self.config.array_cols):
                    n_t = min(self.config.array_cols, spec.c_out - n0)
                    array = CycleAccurateArray(self.config.array_rows, self.config.array_cols)
                    array.load_weights(b[k0 : k0 + k_t, n0 : n0 + n_t])
                    partial, _ = array.run(a[:, k0 : k0 + k_t])
                    accumulator[:, n0 : n0 + n_t] += partial
        ofmap = np.ascontiguousarray(
            accumulator.reshape(spec.n, spec.h_out, spec.w_out, spec.c_out).transpose(0, 3, 1, 2)
        )
        if verify:
            reference = direct_conv2d(ifmap, weights, spec)
            if not np.allclose(ofmap, reference):
                raise AssertionError(
                    f"functional simulation diverged from reference for {spec.describe()}"
                )
        return ofmap

    # -------------------------------------------------------------- breakdown
    def stride_sweep(self, spec: ConvSpec, strides: Sequence[int]) -> Dict[int, LayerResult]:
        """Convenience for Fig 4b: the same layer at several strides."""
        results = {}
        for stride in strides:
            results[stride] = self.simulate_conv(spec.with_stride(stride))
        return results
