"""Golden-snapshot cycle accounting for every figure experiment's workloads.

The exported ``results/`` directory freezes the harness's *rendered* output;
this module freezes something sharper: the **per-layer cycle breakdown**
(total / compute / DMA / exposed-DMA / MACs / multi-tile group) of every
workload each paper figure sweeps, at full float precision.  A perf refactor
that keeps totals but silently shifts attribution between compute and
exposed DMA — exactly the failure mode a vectorized-executor rewrite can
introduce — fails the golden tests even when every figure still renders the
same.

Layout:

- :data:`GOLDEN_EXPERIMENTS` — the figure/table ids with a golden set;
- :func:`compute_golden` — recompute one experiment's payload from scratch
  (every entry is a pure function of frozen configs/specs, so payloads are
  bit-deterministic across processes — the ``--jobs N`` regression test
  round-trips them through a worker pool);
- :func:`diff_payloads` — field-precise comparison for test failure output;
- ``tools/gen_goldens.py`` writes the JSON files under
  ``tests/trace/goldens/`` (``make goldens``), and
  ``tests/trace/test_goldens.py`` re-derives and compares them bit-exactly.

Floats survive the JSON round-trip exactly: ``json`` serialises via
``repr``, which is the shortest digit string that round-trips a binary64.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..gpu.channel_first import channel_first_conv_time
from ..gpu.config import V100
from ..gpu.cudnn_model import cudnn_conv_time
from ..systolic.config import TPU_V2
from ..systolic.scheduler import ifmap_rows_per_block
from ..systolic.simulator import TPUSim
from ..workloads.networks import network, network_names
from ..workloads.synthetic import (
    conv_validation_layers,
    fig4_layers,
    fig14_layer,
    gemm_sweep,
    memory_bound_layers,
    small_channel_sweep,
    strided_layers,
)
from .metrics import LayerCycleRecord, audit_record

__all__ = [
    "GOLDEN_SCHEMA",
    "GOLDEN_EXPERIMENTS",
    "compute_golden",
    "compute_all_goldens",
    "diff_payloads",
    "golden_filename",
]

GOLDEN_SCHEMA = 1


# --------------------------------------------------------------------------
# Entry builders
# --------------------------------------------------------------------------


def _audit(source: str, result, arrays: int = 1) -> None:
    """Goldens are generated through the same invariant gate traced runs use."""
    audit_record(
        LayerCycleRecord(
            source=source,
            name=result.name,
            cycles=result.cycles,
            compute_cycles=result.compute_cycles,
            dma_cycles=result.dma_cycles,
            exposed_dma_cycles=result.exposed_dma_cycles,
            macs=result.macs,
            utilization=result.utilization,
            group_size=result.group_size,
            arrays=arrays,
        )
    )


def _conv_entry(sim: TPUSim, spec: ConvSpec, config_tag: str = "tpu_v2", **kwargs) -> dict:
    result = sim.simulate_conv(spec, **kwargs)
    _audit("golden.conv", result)
    return {
        "kind": "tpu-conv",
        "config": config_tag,
        "workload": result.name,
        "cycles": result.cycles,
        "compute_cycles": result.compute_cycles,
        "dma_cycles": result.dma_cycles,
        "exposed_dma_cycles": result.exposed_dma_cycles,
        "macs": result.macs,
        "group_size": result.group_size,
    }


def _gemm_entry(sim: TPUSim, shape: GemmShape, config_tag: str = "tpu_v2") -> dict:
    result = sim.simulate_gemm(shape, name=f"gemm.{shape.m}x{shape.k}x{shape.n}")
    _audit("golden.gemm", result)
    return {
        "kind": "tpu-gemm",
        "config": config_tag,
        "workload": result.name,
        "cycles": result.cycles,
        "compute_cycles": result.compute_cycles,
        "dma_cycles": result.dma_cycles,
        "exposed_dma_cycles": result.exposed_dma_cycles,
        "macs": result.macs,
        "group_size": result.group_size,
    }


def _fill_entries(sim: TPUSim, spec: ConvSpec) -> List[dict]:
    """Fig 7's unit of account: one IFMap block fill per DRAM layout."""
    rows = ifmap_rows_per_block(spec, sim.config, group_size=1)
    entries = []
    for layout in (Layout.NHWC, Layout.NCHW):
        cycles = sim.engine.ifmap_tile_fill_cycles(spec, rows, 1, layout=layout)
        entries.append(
            {
                "kind": "ifmap-fill",
                "config": "tpu_v2",
                "workload": f"{spec.name}:{layout.value}",
                "rows": rows,
                "cycles": cycles,
            }
        )
    return entries


def _gpu_entries(spec: ConvSpec) -> List[dict]:
    """Fig 17/18's unit of account: our kernel vs. the cuDNN stand-in."""
    ours = channel_first_conv_time(spec, V100)
    cudnn = cudnn_conv_time(spec, V100)
    return [
        {
            "kind": "gpu-channel-first",
            "config": "v100",
            "workload": spec.name,
            "seconds": ours.seconds,
            "tflops": ours.tflops,
        },
        {
            "kind": "gpu-cudnn",
            "config": "v100",
            "workload": spec.name,
            "seconds": cudnn.seconds,
            "tflops": cudnn.tflops,
        },
    ]


# --------------------------------------------------------------------------
# Per-experiment workload sets (mirroring each figure's sweep)
# --------------------------------------------------------------------------


def _golden_fig2() -> List[dict]:
    """Batch-64 motivation networks (the TPU side of Fig 2b)."""
    sim = TPUSim()
    return [
        _conv_entry(sim, layer)
        for name in network_names()
        for layer in network(name, 64)
    ]


def _golden_fig4() -> List[dict]:
    """Representative ResNet layers at strides 1/2/4, conv and GEMM series."""
    sim = TPUSim()
    entries = []
    for layer in fig4_layers(batch=64):
        for stride in (1, 2, 4):
            spec = layer.with_stride(stride)
            entries.append(_conv_entry(sim, spec))
            entries.append(_gemm_entry(sim, spec.gemm_shape()))
    return entries


def _golden_fig7() -> List[dict]:
    """Tile-fill cost per DRAM layout over the validation conv layers."""
    sim = TPUSim()
    entries = []
    for spec in conv_validation_layers(batch=8):
        entries.extend(_fill_entries(sim, spec))
    return entries


def _golden_fig13() -> List[dict]:
    """The GEMM sweep grid and the no-multi-tile CONV validation layers."""
    sim = TPUSim()
    entries = [_gemm_entry(sim, shape) for shape in gemm_sweep()]
    entries += [_conv_entry(sim, spec) for spec in conv_validation_layers(batch=8)]
    return entries


def _golden_fig14() -> List[dict]:
    """Multi-tile study: explicit group sizes plus the small-channel sweep."""
    sim = TPUSim()
    study = fig14_layer(batch=8)
    entries = [
        _conv_entry(sim, study, group_size=g) for g in range(1, study.h_filter * study.w_filter + 1)
    ]
    entries += [_conv_entry(sim, spec) for spec in small_channel_sweep(batch=8)]
    return entries


def _golden_fig15() -> List[dict]:
    """Every conv layer of every benchmark network, batch 8."""
    sim = TPUSim()
    return [
        _conv_entry(sim, layer)
        for name in network_names()
        for layer in network(name, 8)
    ]


def _golden_fig16() -> List[dict]:
    """VGG16 under the array-size design sweep."""
    entries = []
    for size in (64, 128, 256):
        sim = TPUSim(TPU_V2.with_array(size))
        entries += [
            _conv_entry(sim, layer, config_tag=f"tpu_v2.array{size}")
            for layer in network("VGG16", 8)
        ]
    return entries


def _golden_fig17() -> List[dict]:
    """Our GPU kernel vs. the cuDNN stand-in over the benchmark networks."""
    entries = []
    for name in network_names():
        for layer in network(name, 8):
            entries.extend(_gpu_entries(layer))
    return entries


def _golden_fig18() -> List[dict]:
    """Strided and memory-bound layer selections, TPU and GPU accounts."""
    sim = TPUSim()
    entries = []
    for spec in strided_layers(batch=8) + memory_bound_layers(batch=8):
        entries.append(_conv_entry(sim, spec))
        entries.extend(_gpu_entries(spec))
    return entries


def _golden_table1() -> List[dict]:
    """Batch-1 fp16 network latencies decomposed per layer."""
    sim = TPUSim()
    return [
        _conv_entry(sim, layer)
        for name in network_names()
        for layer in network(name, 1)
    ]


_BUILDERS: Dict[str, Callable[[], List[dict]]] = {
    "fig2": _golden_fig2,
    "fig4": _golden_fig4,
    "fig7": _golden_fig7,
    "fig13": _golden_fig13,
    "fig14": _golden_fig14,
    "fig15": _golden_fig15,
    "fig16": _golden_fig16,
    "fig17": _golden_fig17,
    "fig18": _golden_fig18,
    "table1": _golden_table1,
}

GOLDEN_EXPERIMENTS = tuple(_BUILDERS)


# --------------------------------------------------------------------------
# Payloads and comparison
# --------------------------------------------------------------------------


def compute_golden(experiment_id: str) -> dict:
    """Recompute one experiment's golden payload from scratch."""
    try:
        builder = _BUILDERS[experiment_id]
    except KeyError:
        raise KeyError(
            f"no golden set for {experiment_id!r}; known: {sorted(_BUILDERS)}"
        ) from None
    return {
        "schema": GOLDEN_SCHEMA,
        "experiment": experiment_id,
        "entries": builder(),
    }


def compute_all_goldens() -> Dict[str, dict]:
    return {eid: compute_golden(eid) for eid in GOLDEN_EXPERIMENTS}


def golden_filename(experiment_id: str) -> str:
    return f"{experiment_id}.json"


def diff_payloads(expected: dict, actual: dict) -> List[str]:
    """Human-readable field-level differences (empty list == bit-identical).

    Compares through a canonical JSON round-trip so a payload loaded from
    disk and one computed in memory are held to exactly the representable
    values the file stores.
    """
    expected = json.loads(json.dumps(expected))
    actual = json.loads(json.dumps(actual))
    diffs: List[str] = []
    if expected.get("schema") != actual.get("schema"):
        diffs.append(
            f"schema: {expected.get('schema')} != {actual.get('schema')}"
        )
    left, right = expected.get("entries", []), actual.get("entries", [])
    if len(left) != len(right):
        diffs.append(f"entry count: {len(left)} != {len(right)}")
    for i, (a, b) in enumerate(zip(left, right)):
        if a == b:
            continue
        label = a.get("workload", f"entry[{i}]")
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                diffs.append(
                    f"{label} [{a.get('kind', '?')}] {field}: "
                    f"{a.get(field)!r} != {b.get(field)!r}"
                )
    return diffs
