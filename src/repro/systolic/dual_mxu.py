"""The TPU-v3 move: a second systolic array on the same vector memories.

Fig 16b's closing insight is that at word size 8 the vector-memory ports sit
>50% idle, and that "this insight explains why the TPUv3 chooses to add
another systolic array to leverage this extra vector memory bandwidth".
This module operationalises that observation:

- :func:`port_budget_allows` — the feasibility check: ``arrays`` MXUs fed
  from one set of vector memories demand ``2 * arrays / word_elems`` of each
  port; the design is contention-free while that is <= 1.  Word 8 admits up
  to 4 arrays; word 2 admits exactly one — the quantitative version of the
  paper's sentence.
- :func:`simulate_conv_dual_mxu` — timing with ``arrays`` MXUs splitting the
  schedule's work items round-robin while *sharing* the HBM interface: the
  compute side scales, the DMA side does not, so memory-bound layers stop
  scaling — which is also why TPU-v3 raised the HBM bandwidth alongside.
"""

from __future__ import annotations

from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from ..core.tiling import tpu_multi_tile_policy
from ..perf.cache import config_key, spec_key
from ..perf import batch as perf_batch
from ..perf import schedule_arrays as perf_schedules
from .config import TPUConfig, TPU_V2
from .scheduler import channel_first_schedule
from .simulator import LayerResult, layer_result, price

__all__ = ["port_budget_allows", "simulate_conv_dual_mxu"]


def port_budget_allows(arrays: int, config: TPUConfig = TPU_V2) -> bool:
    """Can ``arrays`` MXUs share the vector memories without port contention?

    Each array demands one read and one write per memory per ``word_elems``
    cycles (Sec. IV-A's cadence), so the port budget is
    ``2 * arrays / word_elems <= 1``.
    """
    if arrays <= 0:
        raise ValueError(f"arrays must be positive, got {arrays}")
    return 2 * arrays / config.sram_word_elems <= 1.0


def simulate_conv_dual_mxu(
    spec: ConvSpec, arrays: int = 2, config: TPUConfig = TPU_V2
) -> LayerResult:
    """Timing with ``arrays`` MXUs sharing the vector memories and HBM.

    Raises if the word size cannot feed that many arrays — the feasibility
    constraint that makes word-8 special.
    """
    if not port_budget_allows(arrays, config):
        raise ValueError(
            f"word size {config.sram_word_elems} cannot feed {arrays} arrays "
            f"(port demand {2 * arrays / config.sram_word_elems:.2f} > 1)"
        )
    name = f"mxu-x{arrays}:{spec.describe()}"

    def schedule():
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
        return perf_batch.conv_schedule_batch([(spec, group_size)], config)[0]

    def compute() -> LayerResult:
        outcome = perf_schedules.execute_schedule_arrays(schedule(), arrays)
        return layer_result(name, spec.macs, outcome, config, arrays=arrays)

    key = ("tpu-multi-mxu", config_key(config), spec_key(spec), arrays)
    return price(
        "tpu.dual_mxu",
        key,
        compute,
        name=name,
        arrays=arrays,
        check=lambda result: audit_invariants.check_tpu_multi_mxu(
            spec, config, arrays, result
        ),
        verify=lambda result: audit_differential.verify_layer(
            key,
            result,
            schedule,
            lambda: channel_first_schedule(spec, config),
            config=config,
            layer=spec.name or "conv",
            spec=spec,
            arrays=arrays,
        ),
    )
