"""Multi-core TPU scaling (the TPU-v2 chip has two cores; boards have more).

The standard deployment splits the batch across cores (data parallelism for
inference; the paper's Fig 9 caption notes the dual-core organisation).
This module models that: a batch-``N`` layer on ``C`` cores runs as a
batch-``ceil(N/C)`` layer per core, plus a per-step synchronisation cost.
Scaling efficiency degrades exactly where the paper's machinery predicts —
small per-core batches stop filling the vector-memory words (HWCN packing
wants ``word_elems`` images) and pipeline overheads amortise worse.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from ..core.conv_spec import ConvSpec
from .config import TPUConfig, TPU_V2
from .simulator import LayerResult, TPUSim

__all__ = ["MultiCoreResult", "simulate_conv_multicore", "scaling_efficiency"]


@dataclasses.dataclass(frozen=True)
class MultiCoreResult:
    """Outcome of a data-parallel multi-core run."""

    cores: int
    per_core: LayerResult
    sync_cycles: float

    @property
    def cycles(self) -> float:
        """Wall-clock cycles: the slowest core plus synchronisation."""
        return self.per_core.cycles + self.sync_cycles


def simulate_conv_multicore(
    spec: ConvSpec,
    cores: int = 2,
    config: TPUConfig = TPU_V2,
    sync_cycles_per_step: float = 2000.0,
) -> MultiCoreResult:
    """Run a layer data-parallel across ``cores`` cores.

    The batch is split evenly (rounded up — a ragged split runs at the
    larger shard's latency); inference needs no gradient exchange, so the
    synchronisation term is a fixed barrier per layer.
    """
    if cores <= 0:
        raise ValueError(f"cores must be positive, got {cores}")
    if spec.n < cores:
        raise ValueError(f"batch {spec.n} cannot split across {cores} cores")
    shard = spec.with_batch(math.ceil(spec.n / cores))
    per_core = TPUSim(config).simulate_conv(shard)
    return MultiCoreResult(cores=cores, per_core=per_core, sync_cycles=sync_cycles_per_step)


def scaling_efficiency(
    spec: ConvSpec, core_counts: Sequence[int] = (1, 2, 4, 8), config: TPUConfig = TPU_V2
):
    """Speedup / cores for each count — the scaling-curve series.

    Returns ``{cores: (speedup, efficiency)}`` relative to one core.
    MACs per shard shrink with the split, so superlinear numbers are
    impossible by construction; sub-linear numbers come from pipeline
    amortisation and the fixed sync barrier.
    """
    results = {}
    base = simulate_conv_multicore(spec, 1, config).cycles
    for cores in core_counts:
        if spec.n < cores:
            continue
        cycles = simulate_conv_multicore(spec, cores, config).cycles
        speedup = base / cycles
        results[cores] = (speedup, speedup / cores)
    return results
