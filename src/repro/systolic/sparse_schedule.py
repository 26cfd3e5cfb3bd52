"""Position-sparse channel-first scheduling on the TPU.

The hardware payoff of :mod:`repro.core.sparsity`: a pruned filter position
is simply absent from the schedule — its vector-memory fill, weight load
and array passes never happen.  No sparse indices, no load balancing, no
crossbars; the win is purely a shorter schedule, which is exactly the kind
of sparsity a systolic array can exploit (contrast the fine-grained-sparse
accelerator literature the paper cites, which needs dedicated hardware).

Speedup is therefore ~``1/density`` when compute-bound, degrading towards
1x only as the layer becomes memory-bound on weights/OFMap movement — the
sparsity experiment sweeps this.
"""

from __future__ import annotations

from typing import List

from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from ..core.sparsity import PositionMask
from ..core.tiling import MultiTileGroup, tpu_multi_tile_policy
from ..perf.cache import config_key, spec_key
from ..perf import batch as perf_batch
from ..perf import schedule_arrays as perf_schedules
from .config import TPUConfig, TPU_V2
from .dma import FillEngine
from .scheduler import WorkItem, ifmap_rows_per_block, tile_occupancy_cycles
from .simulator import LayerResult, layer_result, price

__all__ = ["sparse_channel_first_schedule", "simulate_conv_sparse"]


def _masked_groups(spec: ConvSpec, mask: PositionMask, group_size: int) -> List[MultiTileGroup]:
    """Row-aligned groups over the *kept* positions only."""
    kept = mask.kept_tiles()
    groups: List[MultiTileGroup] = []
    for r in range(spec.h_filter):
        row_tiles = [t for t in kept if t.r == r]
        for start in range(0, len(row_tiles), group_size):
            chunk = tuple(row_tiles[start : start + group_size])
            if chunk:
                groups.append(MultiTileGroup(tiles=chunk, spec=spec))
    return groups


def sparse_channel_first_schedule(
    spec: ConvSpec,
    mask: PositionMask,
    config: TPUConfig = TPU_V2,
    engine: FillEngine = None,
    group_size: int = None,
    debug_labels: bool = False,
) -> List[WorkItem]:
    """The channel-first schedule restricted to the mask's positions.

    This is the per-item reference path (timing runs go through the
    schedule engine in :func:`simulate_conv_sparse`); ``debug_labels``
    opts into the per-item label strings."""
    if mask.spec != spec:
        raise ValueError("mask was built for a different spec")
    engine = engine if engine is not None else FillEngine(config)
    if group_size is None:
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
    groups = _masked_groups(spec, mask, group_size)
    m_total = spec.lowered_rows()
    m_block = ifmap_rows_per_block(spec, config, group_size)
    items: List[WorkItem] = []
    for m0 in range(0, m_total, m_block):
        rows = min(m_block, m_total - m0)
        for gi, group in enumerate(groups):
            merged_k = group.merged_k
            input_fill = engine.ifmap_tile_fill_cycles(spec, rows, group.group_size)
            first_chunk = True
            for k0 in range(0, merged_k, config.array_rows):
                k_t = min(config.array_rows, merged_k - k0)
                for n0 in range(0, spec.c_out, config.array_cols):
                    n_t = min(config.array_cols, spec.c_out - n0)
                    fill = engine.weight_fill_cycles(k_t, n_t)
                    if first_chunk:
                        fill += input_fill
                        first_chunk = False
                    drain = 0.0
                    if gi == len(groups) - 1 and k0 + k_t >= merged_k:
                        drain = engine.ofmap_drain_cycles(rows, n_t)
                    items.append(
                        WorkItem(
                            label=f"sparse:m{m0}:g{gi}:k{k0}:n{n0}" if debug_labels else "",
                            gemm_cycles=tile_occupancy_cycles(
                                rows, k_t, n_t, config, first=not items
                            ),
                            fill_cycles=fill,
                            drain_cycles=drain,
                            macs=rows * k_t * n_t,
                        )
                    )
    return items


def simulate_conv_sparse(
    spec: ConvSpec, mask: PositionMask, config: TPUConfig = TPU_V2
) -> LayerResult:
    """Timing of the position-sparse conv; MACs counted for the kept work."""
    name = f"sparse[{mask.density:.2f}]:{spec.describe()}"

    def schedule():
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
        return perf_batch.conv_schedule_batch(
            [(spec, group_size)],
            config,
            groups=[_masked_groups(spec, mask, group_size)],
        )[0]

    def compute() -> LayerResult:
        outcome = perf_schedules.execute_schedule_arrays(schedule())
        # The schedule's own integer MAC sum: exact, unlike a float density.
        return layer_result(name, outcome.macs, outcome, config)

    key = ("tpu-sparse", config_key(config), spec_key(spec), mask.kept)
    return price(
        "tpu.sparse",
        key,
        compute,
        name=name,
        check=lambda result: audit_invariants.check_tpu_sparse(
            spec, config, len(mask.kept), result
        ),
        verify=lambda result: audit_differential.verify_layer(
            key,
            result,
            schedule,
            lambda: sparse_channel_first_schedule(spec, mask, config),
            config=config,
            layer=spec.name or "conv",
            spec=spec,
            kept=len(mask.kept),
        ),
    )
