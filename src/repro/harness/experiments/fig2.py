"""Fig 2: execution-time comparison of explicit vs implicit im2col, batch 64.

(a) V100 GPU: per network, the explicit path's (GEMM + transform) stacked
time normalized to the implicit (cuDNN-model) time.  Paper: explicit is 28%
slower on average, its GEMM component nearly equal to the implicit total.

(b) TPU-v2: the paper cannot run explicit im2col on the TPU, so it combines
the TPU's GEMM time with the GPU-measured transform time as a lower bound.
We mimic exactly that: TPUSim GEMM-primitive time on the lowered shapes plus
the GPU transform-kernel time, normalized to TPUSim's implicit conv time.
Paper: explicit ~23% slower, transform overhead ~26%.
"""

from __future__ import annotations

from ...gpu.config import V100
from ...gpu.explicit import im2col_transform_time
from ...obs import log as obs_log
from ...oracle.gpu_oracle import GPUOracle
from ...systolic.config import TPU_V2
from ...systolic.simulator import TPUSim
from ...workloads.networks import network_names, network
from ..report import ExperimentResult, Table

BATCH = 64


def _gpu_breakdown(layers):
    """Per-network (implicit_s, explicit_gemm_s, explicit_transform_s)."""
    oracle = GPUOracle()
    implicit = sum(oracle.measured_implicit_seconds(layer) for layer in layers)
    gemm = 0.0
    transform = 0.0
    for layer in layers:
        explicit = oracle.measured_explicit(layer)
        gemm += explicit.gemm.seconds
        transform += explicit.transform.seconds
    return implicit, gemm, transform


def _tpu_breakdown(layers, sim: TPUSim):
    """Per-network (implicit_s, gemm_s, transform_s) on the TPU.

    Following the paper's construction: the explicit method's GEMM time is
    the conv's GEMM work on the TPU — which is exactly the implicit method's
    execution time, since the implicit method spends all its time on GEMM —
    and the im2col transform time is estimated from the GPU measurement
    (a lower bound: shipping the lowered matrix to the TPU is not charged).
    """
    implicit_cycles = sum(sim.simulate_conv(layer).cycles for layer in layers)
    clock = sim.config.clock_ghz * 1e9
    implicit = implicit_cycles / clock
    transform = sum(im2col_transform_time(layer, V100).seconds for layer in layers)
    return implicit, implicit, transform


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "fig2", "Explicit vs implicit im2col execution time (normalized), batch 64"
    )
    names = network_names()
    if quick:
        names = names[:3]

    gpu_table = result.add_table(
        Table(
            "Fig 2a: V100 GPU (normalized to implicit)",
            ("network", "implicit", "explicit GEMM", "explicit im2col", "explicit total"),
        )
    )
    gpu_overheads = []
    for name in names:
        layers = network(name, BATCH)
        implicit, gemm, transform = _gpu_breakdown(layers)
        gpu_table.add_row(
            name, 1.0, gemm / implicit, transform / implicit, (gemm + transform) / implicit
        )
        gpu_overheads.append((gemm + transform) / implicit - 1.0)
        obs_log.debug(
            "fig2.gpu_network", network=name, layers=len(layers),
            explicit_overhead=round(gpu_overheads[-1], 4),
        )
    gpu_avg = sum(gpu_overheads) / len(gpu_overheads)
    result.note(
        f"GPU: explicit im2col is {100 * gpu_avg:.0f}% slower than implicit on average "
        "(paper: 28%); explicit GEMM time tracks the implicit total."
    )

    sim = TPUSim(TPU_V2)
    tpu_table = result.add_table(
        Table(
            "Fig 2b: TPU-v2 (normalized to implicit; transform est. from GPU)",
            ("network", "implicit", "explicit GEMM", "explicit im2col", "explicit total"),
        )
    )
    tpu_overheads = []
    for name in names:
        layers = network(name, BATCH)
        implicit, gemm, transform = _tpu_breakdown(layers, sim)
        tpu_table.add_row(
            name, 1.0, gemm / implicit, transform / implicit, (gemm + transform) / implicit
        )
        tpu_overheads.append((gemm + transform) / implicit - 1.0)
    tpu_avg = sum(tpu_overheads) / len(tpu_overheads)
    result.note(
        f"TPU: explicit im2col lower bound is {100 * tpu_avg:.0f}% slower than implicit "
        "on average (paper: 23%)."
    )
    return result
