"""The channel-last (Lym-et-al.-style) schedule migrated onto the TPU.

Sec. II-C argues the previously published implicit im2col does not port to a
systolic array: it needs a heavily-banked SRAM with a crossbar, and its
sliding-window staging does not shrink with stride.  This module builds that
schedule on our systolic substrate anyway — the "what if the TPU used
channel-last" counterfactual — so the ablation experiment can show *on the
same simulator* why the TPU's observed stride-insensitivity implies the
channel-first design:

- IFMap blocks are staged as **sliding-window regions** (priced by
  :meth:`~repro.systolic.dma.FillEngine.sliding_window_fill_cycles`, whose
  size is input-geometry-bound and does not shrink with stride);
- the GEMM over a staged region covers the full ``H_F*W_F*C_I`` K dimension
  for the outputs the region supports (shrinking ~quadratically with
  stride);
- feeding the array from the staged region requires per-element crossbar
  routing, modelled as an address-generation throughput tax that grows with
  stride (bank conflicts against the offline stride-1 layout, exactly the
  paper's Fig 3 argument).
"""

from __future__ import annotations

from typing import List, Optional

from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from .config import TPUConfig
from .dma import FillEngine
from .scheduler import WorkItem, execute_schedule, tile_occupancy_cycles
from .simulator import LayerResult, finish, layer_result

__all__ = ["channel_last_tpu_schedule", "simulate_conv_channel_last"]

#: Crossbar address-generation slowdown per stride step beyond 1 (the
#: offline bank-conflict-free layout only exists for stride 1).
CROSSBAR_STRIDE_TAX = 0.5


def channel_last_tpu_schedule(
    spec: ConvSpec,
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
) -> List[WorkItem]:
    """Work items for the sliding-window (channel-last) schedule."""
    engine = engine if engine is not None else FillEngine(config)
    # Stage whole output-row bands: each band's window region must fit the
    # IFMap buffer share.
    budget = config.unified_sram_bytes // 4
    bytes_per_in_row = (spec.w_in + 2 * spec.padding) * spec.c_in * config.compute_elem_bytes
    max_in_rows = max(1, budget // bytes_per_in_row)
    out_rows_per_band = max(1, (max_in_rows - spec.h_filter) // spec.stride + 1)
    out_rows_per_band = min(out_rows_per_band, spec.h_out)
    crossbar_tax = 1.0 + CROSSBAR_STRIDE_TAX * (spec.stride - 1)

    k_total = spec.positions * spec.c_in
    items: List[WorkItem] = []
    for n in range(spec.n):
        for band_start in range(0, spec.h_out, out_rows_per_band):
            band_rows = min(out_rows_per_band, spec.h_out - band_start)
            m_band = band_rows * spec.w_out
            fill = engine.sliding_window_fill_cycles(spec, m_band)
            first_of_band = True
            for k0 in range(0, k_total, config.array_rows):
                k_t = min(config.array_rows, k_total - k0)
                for n0 in range(0, spec.c_out, config.array_cols):
                    n_t = min(config.array_cols, spec.c_out - n0)
                    item_fill = engine.weight_fill_cycles(k_t, n_t)
                    if first_of_band:
                        item_fill += fill
                        first_of_band = False
                    occupancy = tile_occupancy_cycles(
                        m_band, k_t, n_t, config, first=not items
                    )
                    occupancy *= crossbar_tax
                    drain = 0.0
                    if k0 + k_t >= k_total:
                        drain = engine.ofmap_drain_cycles(m_band, n_t)
                    items.append(
                        WorkItem(
                            label=f"n{n}:band{band_start}:k{k0}:n{n0}",
                            gemm_cycles=occupancy,
                            fill_cycles=item_fill,
                            drain_cycles=drain,
                            macs=m_band * k_t * n_t,
                        )
                    )
    return items


def simulate_conv_channel_last(spec: ConvSpec, config: TPUConfig) -> LayerResult:
    """Timing of one conv under the counterfactual channel-last schedule.

    Unmemoized, and executed by the scalar fold itself, so there is no
    engine-vs-oracle differential to run; the result still goes through the
    shared audit + trace tail."""
    name = f"channel-last:{spec.describe()}"
    outcome = execute_schedule(channel_last_tpu_schedule(spec, config))
    return finish(
        "tpu.channel_last",
        layer_result(name, spec.macs, outcome, config),
        None,
        name=name,
        # The sliding-window fill model prices staged input regions, not the
        # dense footprint the DRAM roof is built from: compute roof only.
        check=lambda result: audit_invariants.check_tpu_layer(
            "tpu.channel_last",
            config,
            result,
            macs=spec.macs,
            context=audit_invariants.fingerprint_context(spec, config),
        ),
    )
