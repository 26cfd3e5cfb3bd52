"""Pricing one (design point, workload) task: performance and silicon cost.

**Performance** comes from the existing simulators — :class:`TPUSim` for
single-array points, :func:`simulate_conv_dual_mxu` for multi-MXU points —
over every conv layer of the workload.  Timings flow through the memo
cache and, when a persistent store is attached (``--store``), its on-disk
tier, so re-evaluating a point after a crash is a read, not a simulation.

**Cost** is a die-area proxy with the right structure, not a sign-off
floorplan: the SRAM term reuses the calibrated OpenRAM-substitute macro
model (Fig 16b's own area curve, summed over the vector memories), the
compute term charges a fixed area per MAC unit per array, and the HBM
term charges PHY/controller area per GB/s.  The constants are stated
here, used consistently for every point, and only *ratios* matter to the
Pareto frontier — exactly the paper's own Fig 16 methodology.

Everything returned is a plain JSON document of floats/ints whose bytes
are deterministic (IEEE doubles, ``repr`` round-trip), which is what lets
the frontier artifact be compared byte-for-byte across runs.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..errors import ConfigError
from .space import DesignPoint

__all__ = [
    "PE_AREA_MM2",
    "HBM_PHY_MM2_PER_GBPS",
    "workload_layers",
    "parse_workload",
    "point_cost_mm2",
    "evaluate_task",
]

#: Area of one MAC unit (bf16 multiply + fp32 accumulate, 45 nm-class),
#: mm^2 — same order as published systolic-array breakdowns; a proxy.
PE_AREA_MM2 = 5e-4
#: HBM PHY + controller area per GB/s of peak bandwidth, mm^2 — a proxy.
HBM_PHY_MM2_PER_GBPS = 1.5e-2


def parse_workload(token: str) -> Tuple[str, int]:
    """``"vgg16@8"`` -> ``("vgg16", 8)``; batch defaults to 8."""
    name, _, batch = token.partition("@")
    name = name.strip()
    if not name:
        raise ConfigError("empty workload name", field="workload", value=token)
    try:
        batch_n = int(batch) if batch else 8
    except ValueError:
        raise ConfigError(
            "workload batch must be an integer", field="workload", value=token
        ) from None
    if batch_n <= 0:
        raise ConfigError(
            "workload batch must be positive", field="workload", value=token
        )
    return name, batch_n


def workload_layers(token: str, quick: bool = False):
    """The conv layers one workload token names (validated eagerly)."""
    from ..workloads.networks import network

    name, batch = parse_workload(token)
    try:
        layers = network(name, batch)
    except KeyError as err:
        raise ConfigError(
            str(err.args[0]) if err.args else "unknown network",
            field="workload", value=token,
        ) from None
    if quick:
        layers = layers[:4]
    return layers


def point_cost_mm2(point: DesignPoint) -> Dict[str, float]:
    """The die-area proxy, split by component (see module docstring)."""
    from ..memory.sram import SRAMModel

    config = point.to_config()
    sram = SRAMModel(config.sram)
    per_memory_bytes = config.per_memory_bytes
    sram_mm2 = config.num_vector_memories * sram.area_mm2(
        per_memory_bytes, config.sram_word_bytes
    )
    pe_mm2 = PE_AREA_MM2 * config.peak_macs_per_cycle * point.mxu
    hbm_mm2 = HBM_PHY_MM2_PER_GBPS * float(point.hbm_gbps)
    return {
        "sram_mm2": sram_mm2,
        "pe_mm2": pe_mm2,
        "hbm_mm2": hbm_mm2,
        "cost_mm2": sram_mm2 + pe_mm2 + hbm_mm2,
    }


def evaluate_task(
    point: DesignPoint, workload: str, quick: bool = False
) -> Dict[str, Any]:
    """Price one (point, workload) pair; returns the task's result payload.

    The payload is pure data (no timestamps, no host identity) — the same
    task evaluated anywhere, any number of times, yields the same bytes.
    """
    layers = workload_layers(workload, quick=quick)
    config = point.to_config()
    total_cycles = 0.0
    total_macs = 0
    if point.mxu <= 1:
        from ..systolic.simulator import TPUSim

        sim = TPUSim(config)
        for layer in layers:
            result = sim.simulate_conv(layer)
            total_cycles += result.cycles
            total_macs += result.macs
    else:
        from ..systolic.dual_mxu import simulate_conv_dual_mxu

        for layer in layers:
            result = simulate_conv_dual_mxu(
                layer, arrays=point.mxu, config=config
            )
            total_cycles += result.cycles
            total_macs += result.macs
    tflops = (
        2 * total_macs * config.clock_ghz / total_cycles / 1e3
        if total_cycles > 0
        else 0.0
    )
    peak = config.peak_macs_per_cycle * point.mxu
    utilization = total_macs / (peak * total_cycles) if total_cycles > 0 else 0.0
    return {
        "point": point.to_doc(),
        "workload": workload,
        "quick": bool(quick),
        "layers": len(layers),
        "cycles": total_cycles,
        "macs": total_macs,
        "tflops": tflops,
        "utilization": utilization,
    }
