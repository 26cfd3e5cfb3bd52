"""The conservation-law catalog: what a simulated result must obey.

Every check here is a *physical* identity or bound, independent of how the
schedule was built or executed — that independence is what makes them
audits rather than change detectors:

======================================  =======================================
invariant id                            identity / bound
======================================  =======================================
``tpu.macs.conservation``               executed MACs == ΣK·R·S·C·P·Q (``spec.macs``)
``tpu.cycles.accounting``               exposure identity bit-exact; compute ≤ total;
                                        total ≤ compute + DMA (serial-sum bound)
``tpu.utilization.range``               utilization ∈ (0, 1]
``tpu.latency.roofline``                cycles ≥ directional roofline lower bound
``tpu.dram.read-bounds``                unique touched footprint ≤ scheduled DRAM
                                        reads ≤ im2col-expanded (lowered) bound
``tpu.flops.equivalence``               channel-first merged-GEMM MACs ==
                                        explicit-im2col GEMM MACs == direct conv
``tpu.gemm.*``                          the same four for raw GEMM layers and
                                        the GEMM half of explicit im2col
``tpu.dual.*``                          the same with the dual-MXU capacity model
``tpu.sparse.*``                        the same for position-sparse convs:
                                        MACs·positions == spec MACs·kept;
                                        compute roof only
``tpu.resident.*``                      the same for residency-scheduled layers;
                                        compute roof only (elided fills/drains)
``tpu.channel_last.*``                  the same for the channel-last
                                        counterfactual; compute roof only
``hbm.bandwidth.law``                   transfer cycles ≥ bytes / peak bytes-per-cycle
``sram.latency.sane``                   access latency finite and positive
``gpu.kernel.accounting``               kernel seconds ≥ max(compute, memory) parts
``gpu.kernel.roofline``                 compute/memory parts ≥ their roofs
``gpu.flops.equivalence``               implicit-im2col kernel MACs == direct conv
``gpu.reuse.range``                     halo-reuse fraction ∈ [0, 1]
======================================  =======================================

The four shared checks (MAC conservation, cycle accounting, utilization
range, roofline) live in one core, :func:`check_tpu_layer`; each TPU
pricing path runs it under its own prefix from the simulator's shared
pricing tail (:func:`repro.systolic.simulator.finish`).

Inequalities tolerate a relative ``1e-9`` (float sums associated
differently by the reference and vectorized executors); identities are
exact.  Violations raise :class:`repro.errors.AuditFault` via
:func:`repro.audit.auditor.check`, carrying the invariant id,
expected/actual values and the ConvSpec + config fingerprints.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Optional

from ..analysis.roofline import cycle_lower_bound
from ..core.conv_spec import ConvSpec, GemmShape
from . import auditor as _auditor

__all__ = [
    "REL_TOL",
    "fingerprint_context",
    "unique_ifmap_elements",
    "check_tpu_layer",
    "check_tpu_conv",
    "check_tpu_gemm",
    "check_tpu_multi_mxu",
    "check_tpu_sparse",
    "check_hbm_transfer",
    "check_sram_latency",
    "check_gpu_kernel",
    "check_gpu_channel_first",
]

#: Relative slack for inequality checks only; identities are exact.
REL_TOL = 1e-9


def _digest(value: Any) -> str:
    from ..perf.cache import fingerprint

    return hashlib.sha256(repr(fingerprint(value)).encode()).hexdigest()[:16]


def fingerprint_context(
    spec: Optional[object] = None, config: Optional[object] = None, **extra
) -> Dict[str, Any]:
    """The structured-payload context: what failed, on which machine."""
    context: Dict[str, Any] = dict(extra)
    if spec is not None:
        context["spec"] = getattr(spec, "name", "") or repr(spec)
        context["spec_fingerprint"] = _digest(spec)
    if config is not None:
        context["config_fingerprint"] = _digest(config)
    return context


def unique_ifmap_elements(spec: ConvSpec) -> int:
    """How many distinct *real* IFMap elements the convolution touches.

    The row/column coordinate sets factor (height taps and width taps are
    independent), so the footprint is ``N · C_I · |Y| · |X|`` with
    ``Y = {oy·stride + r·dilation − pad} ∩ [0, H)`` and likewise for
    ``X`` — exact, and cheap even for large layers.  Strided or dilated
    layers can skip input elements entirely, so this is the true lower
    bound on DRAM reads (padding contributes nothing: it is not in DRAM).
    """
    ys = {
        oy * spec.stride + r * spec.dilation - spec.padding
        for oy in range(spec.h_out)
        for r in range(spec.h_filter)
    }
    xs = {
        ox * spec.stride + s * spec.dilation - spec.padding
        for ox in range(spec.w_out)
        for s in range(spec.w_filter)
    }
    rows = sum(1 for y in ys if 0 <= y < spec.h_in)
    cols = sum(1 for x in xs if 0 <= x < spec.w_in)
    return spec.n * spec.c_in * rows * cols


def check_tpu_layer(
    prefix: str,
    config,
    result,
    *,
    macs: int,
    context: Dict[str, Any],
    read_bytes: int = 0,
    write_bytes: int = 0,
    arrays: int = 1,
) -> None:
    """The four checks every priced TPU layer obeys, under ``prefix``.

    ``{prefix}.macs.conservation`` (published MACs == ``macs``),
    ``{prefix}.cycles.accounting`` (the exposure identity and its two
    bounds), ``{prefix}.utilization.range`` and ``{prefix}.latency.roofline``
    against ``arrays`` MXUs.  The roofline's DRAM roof streams
    ``read_bytes`` and ``write_bytes``; leaving both at zero keeps only the
    compute roof, the bound for paths whose elided fills/drains or
    restructured footprint make the dense DRAM roof inapplicable.

    ``result`` is the *published* :class:`~repro.systolic.simulator.
    LayerResult`, checked after the memo so that hits (including entries
    populated by earlier unaudited runs) are audited exactly like fresh
    computations; a corrupted memo entry fails here.
    """
    check = _auditor.check
    check(
        f"{prefix}.macs.conservation",
        result.macs == macs,
        expected=macs,
        actual=result.macs,
        message="published MAC total != the layer's work",
        context=context,
    )
    total, compute = result.cycles, result.compute_cycles
    expected_exposed = max(0.0, total - compute / arrays)
    check(
        f"{prefix}.cycles.accounting",
        result.exposed_dma_cycles == expected_exposed,
        expected=expected_exposed,
        actual=result.exposed_dma_cycles,
        message="exposure identity broken (exposed != max(0, total - compute/arrays))",
        context=context,
    )
    check(
        f"{prefix}.cycles.accounting",
        compute <= arrays * total * (1 + REL_TOL),
        expected=f"<= {arrays} array(s) x {total}",
        actual=compute,
        message="array busier than the makespan allows",
        context=context,
    )
    # Fully serialised execution — every fill, multiply and drain
    # back-to-back on one array — is the worst any pipeline can do.
    serial = compute + result.dma_cycles
    check(
        f"{prefix}.cycles.accounting",
        total <= serial * (1 + REL_TOL),
        expected=f"<= compute + dma = {serial}",
        actual=total,
        message="total exceeds the serial-sum upper bound (idle cycles invented)",
        context=context,
    )
    check(
        f"{prefix}.utilization.range",
        0.0 < result.utilization <= 1 + REL_TOL,
        expected="(0, 1]",
        actual=result.utilization,
        message="utilization outside (0, 1]",
        context=context,
    )
    lower = cycle_lower_bound(
        macs,
        arrays * config.peak_macs_per_cycle,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        bytes_per_cycle=config.hbm.bytes_per_cycle,
    )
    check(
        f"{prefix}.latency.roofline",
        total >= lower * (1 - REL_TOL),
        expected=f">= {lower}",
        actual=total,
        message="cycles beat the roofline lower bound (throughput from thin air)",
        context=context,
    )


def check_tpu_conv(
    spec: ConvSpec,
    config,
    result,
    *,
    group_size: int,
    layout=None,
) -> None:
    """Cheap-level checks for one channel-first conv layer (post-cache):
    the shared four under ``tpu``, plus the DRAM read bounds and FLOP
    equivalence of its multi-tile plan."""
    check = _auditor.check
    context = fingerprint_context(spec, config, group_size=group_size)
    elem = config.compute_elem_bytes
    unique_bytes = unique_ifmap_elements(spec) * elem
    check_tpu_layer(
        "tpu",
        config,
        result,
        macs=spec.macs,
        context=context,
        read_bytes=unique_bytes + spec.filter_bytes(elem),
        write_bytes=spec.ofmap_bytes(elem),
    )
    lowered_bytes = spec.lowered_bytes(elem)
    # Re-derive scheduled reads from the *tiling plan* (independent of the
    # lowered-matrix arithmetic): each group streams M rows of g*C_I.
    from ..core.tiling import plan_multi_tile

    groups = plan_multi_tile(spec, group_size)
    scheduled_read = (
        spec.lowered_rows() * spec.c_in * sum(g.group_size for g in groups) * elem
    )
    check(
        "tpu.dram.read-bounds",
        unique_bytes <= scheduled_read <= lowered_bytes,
        expected=f"[{unique_bytes}, {lowered_bytes}]",
        actual=scheduled_read,
        message="scheduled DRAM reads outside [unique footprint, im2col bound]",
        context=context,
    )
    gemm = spec.gemm_shape()
    merged_macs = spec.lowered_rows() * spec.c_out * spec.c_in * sum(
        g.group_size for g in groups
    )
    check(
        "tpu.flops.equivalence",
        gemm.macs == spec.macs and merged_macs == spec.macs,
        expected=spec.macs,
        actual=gemm.macs if gemm.macs != spec.macs else merged_macs,
        message="channel-first merged GEMM work != explicit-im2col GEMM work",
        context=context,
    )


def check_tpu_gemm(shape: GemmShape, config, result) -> None:
    """Cheap-level checks for one raw GEMM layer (post-cache)."""
    elem = config.compute_elem_bytes
    check_tpu_layer(
        "tpu.gemm",
        config,
        result,
        macs=shape.macs,
        context=fingerprint_context(None, config, shape=(shape.m, shape.n, shape.k)),
        read_bytes=(shape.m * shape.k + shape.k * shape.n) * elem,
        write_bytes=shape.m * shape.n * elem,
    )


def check_tpu_multi_mxu(spec: ConvSpec, config, arrays: int, result) -> None:
    """Cheap-level checks for the dual/multi-MXU capacity model (post-cache)."""
    elem = config.compute_elem_bytes
    check_tpu_layer(
        "tpu.dual",
        config,
        result,
        macs=spec.macs,
        context=fingerprint_context(spec, config, arrays=arrays),
        read_bytes=unique_ifmap_elements(spec) * elem + spec.filter_bytes(elem),
        write_bytes=spec.ofmap_bytes(elem),
        arrays=arrays,
    )


def check_tpu_sparse(spec: ConvSpec, config, kept: int, result) -> None:
    """Cheap-level checks for a position-sparse conv keeping ``kept`` of its
    filter positions (post-cache); compute roof only, as the pruned
    footprint voids the dense DRAM roof.  ``spec.macs`` is a multiple of
    ``spec.positions``, so the expected work is the exact identity
    ``macs * positions == spec.macs * kept``."""
    check_tpu_layer(
        "tpu.sparse",
        config,
        result,
        macs=spec.macs // spec.positions * kept,
        context=fingerprint_context(spec, config, kept=kept),
    )


def check_hbm_transfer(stats, total_cycles: float, config) -> None:
    """The bandwidth law: no transfer lands faster than peak bandwidth."""
    floor = stats.bytes / config.bytes_per_cycle
    _auditor.check(
        "hbm.bandwidth.law",
        total_cycles >= floor * (1 - REL_TOL),
        expected=f">= {floor}",
        actual=total_cycles,
        message=f"{stats.bytes} B transfer beat peak bandwidth",
        context={"bytes": stats.bytes, "runs": stats.runs},
    )


def check_sram_latency(latency_ns: float, capacity_bytes: int) -> None:
    """SRAM access latency must be a positive, finite number."""
    _auditor.check(
        "sram.latency.sane",
        latency_ns > 0.0 and math.isfinite(latency_ns),
        expected="> 0 and finite",
        actual=latency_ns,
        message="SRAM access latency is non-positive or non-finite",
        context={"capacity_bytes": capacity_bytes},
    )


def check_gpu_kernel(kernel, config) -> None:
    """Cheap-level checks for one priced GPU kernel (any algorithm)."""
    check = _auditor.check
    context = fingerprint_context(None, config, kernel=kernel.name)
    check(
        "gpu.kernel.accounting",
        kernel.seconds >= max(kernel.compute_seconds, kernel.memory_seconds)
        * (1 - REL_TOL)
        and kernel.seconds > 0.0,
        expected=f">= {max(kernel.compute_seconds, kernel.memory_seconds)}",
        actual=kernel.seconds,
        message="kernel time below its own compute/memory components",
        context=context,
    )
    peak_macs_per_s = (
        config.num_sms * config.macs_per_sm_per_cycle * config.clock_ghz * 1e9
    )
    compute_floor = kernel.macs / (peak_macs_per_s * config.compute_efficiency)
    memory_floor = kernel.traffic_bytes / (config.hbm_bandwidth_gbps * 1e9)
    check(
        "gpu.kernel.roofline",
        kernel.compute_seconds >= compute_floor * (1 - REL_TOL)
        and kernel.memory_seconds >= memory_floor * (1 - REL_TOL),
        expected=f"compute >= {compute_floor}, memory >= {memory_floor}",
        actual=(kernel.compute_seconds, kernel.memory_seconds),
        message="kernel components beat their roofline floors",
        context=context,
    )


def check_gpu_channel_first(spec: ConvSpec, result, config) -> None:
    """Channel-first implicit-im2col specific GPU checks."""
    check = _auditor.check
    context = fingerprint_context(spec, config)
    gemm = spec.gemm_shape()
    check(
        "gpu.flops.equivalence",
        gemm.macs == spec.macs and result.kernel.macs == spec.macs,
        expected=spec.macs,
        actual=gemm.macs if gemm.macs != spec.macs else result.kernel.macs,
        message="implicit-im2col kernel work != direct convolution work",
        context=context,
    )
    check(
        "gpu.reuse.range",
        0.0 <= result.reuse_fraction <= 1.0,
        expected="[0, 1]",
        actual=result.reuse_fraction,
        message="halo-reuse fraction outside [0, 1]",
        context=context,
    )
    check(
        "gpu.kernel.accounting",
        result.seconds >= result.kernel.seconds * (1 - REL_TOL),
        expected=f">= {result.kernel.seconds}",
        actual=result.seconds,
        message="layer time below its own kernel time",
        context=context,
    )
