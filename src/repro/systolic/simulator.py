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

Every TPU path that produces a :class:`LayerResult` — here and in the
dual-MXU, sparse, explicit-im2col, residency and channel-last modules —
assembles it with :func:`layer_result` and publishes it through
:func:`finish` (name fix-up, audit, trace record); single-layer memoized
paths reach :func:`finish` through :func:`price`, the conv and GEMM batch
entry points through one batched memo loop.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.reference import direct_conv2d
from ..core.tiling import plan_multi_tile, tpu_multi_tile_policy
from ..perf.cache import SIM_CACHE, config_key, conv_keys

# Module binding (not named imports): repro.perf.schedule_arrays imports the
# systolic scheduler back, so grabbing names here would break whichever
# package imports first.  The module object resolves cleanly either way.
from ..audit import auditor as audit
from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..errors import AuditFault
from ..perf import batch as perf_batch
from ..trace import metrics as trace_metrics
from ..trace import tracer as trace
from .config import TPUConfig, TPU_V2
from .dma import FillEngine
from .scheduler import ScheduleResult, channel_first_schedule, gemm_schedule
from .systolic_array import CycleAccurateArray

__all__ = ["LayerResult", "NetworkResult", "TPUSim", "finish", "layer_result", "price"]


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


# ---------------------------------------------------------------- pricing
# Every TPU path that produces a LayerResult runs the same sequence: memo
# lookup, name fix-up, invariant check (--audit cheap), engine-vs-oracle
# differential (--audit full), then the --trace layer record.


def layer_result(
    name: str,
    macs: int,
    outcome: ScheduleResult,
    config: TPUConfig,
    group_size: int = 1,
    arrays: int = 1,
) -> LayerResult:
    """Assemble a result from an executed schedule.

    TFLOPS counts *algorithmic* MACs (``macs``) over the simulated cycles,
    so padding/duplication inefficiency shows up as lost TFLOPS exactly as
    it does on real hardware; utilization is against the peak of all
    ``arrays`` MXUs.  Always on: non-finite cycles and non-integral MACs
    raise :class:`~repro.errors.AuditFault`.
    """
    cycles = outcome.total_cycles
    if not math.isfinite(cycles) or cycles < 0:
        raise AuditFault(
            f"non-finite or negative cycle count for {name}",
            invariant="tpu.cycles.finite",
            expected="a finite, non-negative float",
            actual=cycles,
        )
    macs = _boundary_macs(macs, name)
    tflops = 2 * macs * config.clock_ghz / cycles / 1e3 if cycles > 0 else 0.0
    utilization = (
        macs / (arrays * config.peak_macs_per_cycle * cycles) if cycles > 0 else 0.0
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


def finish(
    source: str,
    result: LayerResult,
    key: Optional[tuple],
    *,
    name: str,
    check: Callable[[LayerResult], None],
    verify: Optional[Callable[[LayerResult], None]] = None,
    arrays: int = 1,
) -> LayerResult:
    """The tail every priced layer runs: re-label, audit, record.

    Memo entries are shared across layer names, so the served result first
    takes the caller's ``name``; then ``check(result)`` runs under
    ``--audit cheap`` and ``verify(result)`` under ``--audit full``, and
    the result is recorded for ``--trace`` under ``source``.  It runs
    after the memo on purpose: hits (and stale or corrupt entries) are
    audited exactly like fresh computations.
    """
    if result.name != name:
        result = dataclasses.replace(result, name=name)
    if audit.enabled():
        check(result)
        if verify is not None and audit.full():
            verify(result)
    trace_metrics.record_layer(source, result, key=key, arrays=arrays)
    return result


def price(
    source: str,
    key: tuple,
    compute: Callable[[], LayerResult],
    *,
    name: str,
    canonical: Optional[tuple] = None,
    check: Callable[[LayerResult], None],
    verify: Callable[[LayerResult], None],
    arrays: int = 1,
) -> LayerResult:
    """Price one layer: memo lookup under ``key`` (and the symmetry-folded
    ``canonical`` key), then :func:`finish`.  ``compute()`` runs only on a
    miss, inside a ``{source}.simulate`` span."""

    def traced() -> LayerResult:
        with trace.span(f"{source}.simulate", layer=name):
            return compute()

    result = SIM_CACHE.get_or_compute(key, traced, canonical)
    return finish(
        source, result, key, name=name, check=check, verify=verify, arrays=arrays
    )


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
        parameter (Fig 14a).  A batch of one through
        :meth:`simulate_conv_batch`.
        """
        return self.simulate_conv_batch([spec], group_size, layout)[0]

    def simulate_conv_batch(
        self,
        specs: Sequence[ConvSpec],
        group_size: Optional[int] = None,
        layout: Layout = Layout.NHWC,
    ) -> List[LayerResult]:
        """Timing of many conv layers through the batched schedule engine.

        Per-layer results are bit-identical to pricing each layer alone,
        and the memo sees the hit/miss stream a per-layer loop would have
        produced; only the construction/pricing work is amortized across
        the batch (:mod:`repro.perf.batch`).
        """
        config, engine = self.config, self.engine

        def build(jobs):
            return perf_batch.conv_schedule_batch(jobs, config, engine, layout=layout)

        def check(job, result):
            spec, group = job
            audit_invariants.check_tpu_conv(
                spec, config, result, group_size=group, layout=layout
            )

        def verify(job, key, result):
            spec, group = job
            audit_differential.verify_layer(
                key,
                result,
                lambda: build([job])[0],
                lambda: channel_first_schedule(
                    spec, config, engine, group_size=group, layout=layout
                ),
                config=config,
                layer=spec.name or "conv",
                spec=spec,
                group_size=group,
            )

        requests = []
        for spec in specs:
            group = (
                group_size
                if group_size is not None
                else tpu_multi_tile_policy(spec, config.array_rows)
            )
            exact, canonical = conv_keys(config, spec, group, layout)
            requests.append(
                (exact, canonical, (spec, group), spec.describe() or "conv", spec.macs, group)
            )
        return self._price_batch("tpu.conv", requests, build, check, verify)

    def simulate_gemm(self, shape: GemmShape, name: str = "gemm") -> LayerResult:
        """Timing of a plain GEMM primitive (Fig 13a, Fig 4 reference): a
        batch of one through :meth:`simulate_gemm_batch`."""
        return self.simulate_gemm_batch([shape], name)[0]

    def simulate_gemm_batch(
        self, shapes: Sequence[GemmShape], name: str = "gemm"
    ) -> List[LayerResult]:
        """Timing of many GEMM primitives through the batched engine, with
        the same memo accounting as the equivalent per-shape loop."""
        config, engine = self.config, self.engine
        cfg = config_key(config)

        def build(jobs):
            return perf_batch.gemm_schedule_batch(jobs, config, engine)

        def check(shape, result):
            audit_invariants.check_tpu_gemm(shape, config, result)

        def verify(shape, key, result):
            audit_differential.verify_layer(
                key,
                result,
                lambda: build([shape])[0],
                lambda: gemm_schedule(shape, config, engine),
                config=config,
                layer="gemm",
                shape=(shape.m, shape.n, shape.k),
            )

        requests = [
            (("tpu-gemm", cfg, shape.m, shape.n, shape.k), None, shape, name, shape.macs, 1)
            for shape in shapes
        ]
        return self._price_batch("tpu.gemm", requests, build, check, verify)

    def _price_batch(self, source: str, requests, build, check, verify) -> List[LayerResult]:
        """The one batched memo loop behind the conv and GEMM entry points.

        Each request is ``(key, canonical, job, name, macs, group_size)``;
        ``build(jobs)`` returns the jobs' engine schedules, and
        ``check(job, result)`` / ``verify(job, key, result)`` are the path's
        audits, run per entry by :func:`finish`.  Every request is probed
        first, then all misses are built and executed in one engine pass.
        A miss whose exact or canonical key an earlier miss of the same
        batch already holds joins that job and counts as a hit, and stores
        happen after pricing: the memo sees exactly the hit/miss stream of
        a per-layer probe-then-store loop.
        """
        served: List[Optional[LayerResult]] = [None] * len(requests)
        owner: List[Optional[int]] = [None] * len(requests)  # index into misses
        misses: List[int] = []  # one request index per distinct job
        pending: Dict[tuple, int] = {}  # exact/canonical key -> its job
        aliases = []  # canonical joins: exact keys to alias once priced
        for index, (key, canonical, *_) in enumerate(requests):
            slot = None
            if SIM_CACHE.enabled:
                found, value = SIM_CACHE.probe(key, canonical)
                if found:
                    served[index] = value
                    continue
                slot = pending.get(key)
                if slot is not None:
                    SIM_CACHE.note_pending_hit()
                elif canonical is not None:
                    slot = pending.get(canonical)
                    if slot is not None:
                        SIM_CACHE.note_pending_hit(canonical=True)
                        aliases.append((key, canonical, slot))
            if slot is None:
                slot = len(misses)
                misses.append(index)
                pending[key] = slot
                if canonical is not None:
                    pending.setdefault(canonical, slot)
            owner[index] = slot

        fresh: List[LayerResult] = []
        if misses:
            with trace.span(f"{source}.batch", jobs=len(misses), layers=len(requests)):
                outcomes = perf_batch.execute_schedule_batch(
                    build([requests[index][2] for index in misses])
                )
            for index, outcome in zip(misses, outcomes):
                key, canonical, _, name, macs, group = requests[index]
                result = layer_result(name, macs, outcome, self.config, group)
                SIM_CACHE.store(key, result, canonical)
                fresh.append(result)
            for key, canonical, slot in aliases:
                SIM_CACHE.store(key, fresh[slot], canonical)

        return [
            finish(
                source,
                served[index] if owner[index] is None else fresh[owner[index]],
                key,
                name=name,
                check=functools.partial(check, job),
                verify=functools.partial(verify, job, key),
            )
            for index, (key, _, job, name, _, _) in enumerate(requests)
        ]

    def simulate_network(self, name: str, layers: Sequence[ConvSpec]) -> NetworkResult:
        """A whole network's conv layers as one batch."""
        layers = list(layers)
        with trace.span("tpu.network.simulate", network=name, layers=len(layers)):
            results = self.simulate_conv_batch(layers)
        return NetworkResult(name=name, layers=results)

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
