"""Explicit im2col on the TPU — the SCALE-Sim assumption, priced honestly.

The related work the paper positions against (SCALE-Sim and the sparse-
accelerator literature) "assumes an explicit im2col execution method": the
lowered matrix exists in DRAM and the systolic array runs a plain GEMM over
it.  The TPU has no GPU to run the transform, so on-platform the lowering
itself must run on the vector units (a pure data-movement pass through the
vector memories) and the lowered matrix must make a DRAM round trip.

This module prices that whole path on our substrate:

1. **Transform**: read the IFMap once, write the lowered matrix once —
   bandwidth-bound on HBM, rate-limited additionally by the vector units'
   element throughput (one element moved per ALU per cycle).
2. **GEMM**: the standard :func:`~repro.systolic.scheduler.gemm_schedule`
   over the `[M, H_F*W_F*C_I] x [.., C_O]` problem, which now must *stream
   the lowered matrix from DRAM* — `H_F*W_F`x the implicit path's input
   traffic.

Workspace: the lowered matrix's DRAM footprint (the Table I quantity) —
returned so experiments can report both costs of the naive method at once.
"""

from __future__ import annotations

import dataclasses

from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from ..perf.cache import SIM_CACHE, config_key, spec_key
from ..perf import batch as perf_batch
from ..perf import schedule_arrays as perf_schedules
from .config import TPUConfig, TPU_V2
from .dma import FillEngine
from .scheduler import gemm_schedule
from .simulator import LayerResult, finish, layer_result

__all__ = ["ExplicitTPUResult", "simulate_conv_explicit_tpu"]


@dataclasses.dataclass(frozen=True)
class ExplicitTPUResult:
    """Timing + workspace of the explicit path on the TPU."""

    transform_cycles: float
    gemm: LayerResult
    workspace_bytes: int

    @property
    def cycles(self) -> float:
        return self.transform_cycles + self.gemm.cycles

    def tflops(self, clock_ghz: float, macs: int) -> float:
        if self.cycles <= 0:
            return 0.0
        return 2 * macs * clock_ghz / self.cycles / 1e3


def _transform_cycles(spec: ConvSpec, config: TPUConfig) -> float:
    """The on-TPU lowering pass: IFMap in, lowered matrix out.

    Bounded by the slower of (a) HBM moving ``ifmap + lowered`` bytes and
    (b) the vector units touching every lowered element once.
    """
    elem = config.compute_elem_bytes
    hbm_bytes = spec.ifmap_bytes(elem) + spec.lowered_bytes(elem)
    engine = FillEngine(config)
    hbm_cycles = engine.hbm.contiguous_cycles(hbm_bytes)
    alu_cycles = spec.lowered_elements() / config.vector_alus
    return max(hbm_cycles, alu_cycles)


def simulate_conv_explicit_tpu(
    spec: ConvSpec, config: TPUConfig = TPU_V2
) -> ExplicitTPUResult:
    """Price the explicit im2col conv on the TPU (transform + GEMM).

    The memo holds the transform + GEMM pair; the GEMM half is published
    through the simulator's shared tail (:func:`~repro.systolic.simulator.
    finish`), audited as a raw GEMM and recorded as ``tpu.explicit``.
    """
    name = f"explicit-gemm:{spec.describe()}"
    shape = spec.gemm_shape()

    def schedule():
        return perf_batch.gemm_schedule_batch([shape], config)[0]

    def compute() -> ExplicitTPUResult:
        outcome = perf_schedules.execute_schedule_arrays(schedule())
        return ExplicitTPUResult(
            transform_cycles=_transform_cycles(spec, config),
            gemm=layer_result(name, spec.macs, outcome, config),
            workspace_bytes=spec.lowered_bytes(config.compute_elem_bytes),
        )

    key = ("tpu-explicit", config_key(config), spec_key(spec))
    # The explicit path never sees the conv's spatial structure — only the
    # lowered GEMM (rows x cols x C_O) and the transform's byte/element
    # volumes, all functions of the tuple below.  In particular the N x H*W
    # commutation (batch folding) is exact *here*, unlike on the implicit
    # path where HWCN packing makes the batch dimension physical (Sec. IV-C).
    canonical = (
        "tpu-explicit@c",
        config_key(config),
        spec.lowered_rows(),
        spec.lowered_cols(),
        spec.c_out,
        spec.ifmap_elements(),
    )
    result = SIM_CACHE.get_or_compute(key, compute, canonical_key=canonical)
    gemm = finish(
        "tpu.explicit",
        result.gemm,
        key,
        name=name,
        check=lambda gemm: audit_invariants.check_tpu_gemm(shape, config, gemm),
        verify=lambda gemm: audit_differential.verify_layer(
            key,
            gemm,
            schedule,
            lambda: gemm_schedule(shape, config),
            config=config,
            layer="explicit-gemm",
            spec=spec,
        ),
    )
    if gemm is result.gemm:
        return result
    return dataclasses.replace(result, gemm=gemm)
