"""Network-level scheduling: inter-layer activation residency.

The per-layer simulator charges every layer a fresh IFMap fill from HBM.
Real TPU inference does better: with 32 MB of unified SRAM, a layer whose
input *is the previous layer's output* can often consume it directly from
the vector memories — the OFMap was de-serialised into them anyway
(Sec. IV-A) — skipping both the previous layer's DRAM writeback and this
layer's fill.

:func:`simulate_network_resident` walks a layer chain and, whenever the
producer's OFMap fits the activation budget *and* the consumer reads it as
its IFMap (same geometry), removes the corresponding DMA from both sides:

- producer: OFMap drain cycles are dropped;
- consumer: IFMap fill cycles are dropped (weight fills remain).

The effect is largest on networks of small activations (deep stacks at
14x14/7x7) and vanishing for early high-resolution layers whose activations
exceed the budget — exactly the residency pattern production compilers
exhibit.  The ``residency`` ablation quantifies it per network.

Limitations (documented, deliberate): branching topologies (inception,
dense blocks) are treated as chains — a layer is resident-consumable only
by the next layer in the list — so the numbers are a *lower bound* on what
a graph-aware allocator could do.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..audit import differential as audit_differential
from ..audit import invariants as audit_invariants
from ..core.conv_spec import ConvSpec
from ..core.layouts import Layout
from ..core.tiling import tpu_multi_tile_policy
from ..perf.cache import config_key, conv_keys, spec_key
from ..perf import batch as perf_batch
from ..perf import schedule_arrays as perf_schedules
from .config import TPUConfig, TPU_V2
from .dma import FillEngine
from .scheduler import channel_first_schedule
from .simulator import LayerResult, NetworkResult, layer_result, price

__all__ = [
    "ResidencyDecision",
    "plan_residency",
    "residency_traffic_saved_bytes",
    "simulate_network_resident",
]


@dataclasses.dataclass(frozen=True)
class ResidencyDecision:
    """Whether one producer->consumer edge stays on chip."""

    producer_index: int
    resident: bool
    activation_bytes: int
    reason: str


def _chainable(producer: ConvSpec, consumer: ConvSpec) -> bool:
    """The consumer reads exactly the producer's output tensor."""
    return (
        producer.n == consumer.n
        and producer.c_out == consumer.c_in
        and producer.h_out == consumer.h_in
        and producer.w_out == consumer.w_in
    )


def plan_residency(
    layers: Sequence[ConvSpec],
    config: TPUConfig = TPU_V2,
    activation_budget_fraction: float = 0.5,
) -> List[ResidencyDecision]:
    """Decide, per edge, whether the activation stays in the vector memories.

    The budget is a fraction of the unified SRAM (the rest holds weights in
    flight and the working IFMap/OFMap blocks of the running layer).
    """
    if not layers:
        raise ValueError("layers must be non-empty")
    if not (0 < activation_budget_fraction < 1):
        raise ValueError("activation_budget_fraction must be in (0, 1)")
    budget = int(config.unified_sram_bytes * activation_budget_fraction)
    decisions = []
    for i in range(len(layers) - 1):
        producer, consumer = layers[i], layers[i + 1]
        activation = producer.ofmap_bytes(config.compute_elem_bytes)
        if not _chainable(producer, consumer):
            decisions.append(
                ResidencyDecision(i, False, activation, "not a chain edge")
            )
        elif activation > budget:
            decisions.append(
                ResidencyDecision(i, False, activation, "exceeds activation budget")
            )
        else:
            decisions.append(ResidencyDecision(i, True, activation, "resident"))
    return decisions


class _ResidentInputEngine(FillEngine):
    """A fill engine for layers whose IFMap already sits in the vector
    memories: input fills cost nothing, weight/OFMap movement is unchanged."""

    def ifmap_tile_fill_cycles(self, spec, rows, group_size, layout=None):
        return 0.0


def _layer_cycles(
    spec: ConvSpec,
    config: TPUConfig,
    engine: FillEngine,
    input_resident: bool,
    output_resident: bool,
) -> LayerResult:
    """One layer with optionally-elided IFMap fills / OFMap drains."""
    name = spec.describe()
    policy_group = tpu_multi_tile_policy(spec, config.array_rows)

    def layer_engine() -> FillEngine:
        return _ResidentInputEngine(config, engine.hbm) if input_resident else engine

    def schedule():
        [built] = perf_batch.conv_schedule_batch(
            [(spec, policy_group)], config, layer_engine()
        )
        return built.without_drains() if output_resident else built

    def reference():
        items = channel_first_schedule(
            spec, config, layer_engine(), group_size=policy_group
        )
        if output_resident:
            items = [dataclasses.replace(item, drain_cycles=0.0) for item in items]
        return items

    def compute() -> LayerResult:
        outcome = perf_schedules.execute_schedule_arrays(schedule())
        return layer_result(name, spec.macs, outcome, config, policy_group)

    key = (
        "tpu-resident",
        config_key(config),
        spec_key(spec),
        bool(input_resident),
        bool(output_resident),
    )
    canonical = None
    if not input_resident and not output_resident:
        # A layer with no residency on either side is priced exactly like
        # TPUSim.simulate_conv under the default group/layout — field for
        # field, association for association — so it publishes the same
        # symmetry-folded key and the two namespaces share one computation.
        canonical = conv_keys(config, spec, policy_group, Layout.NHWC)[1]
    return price(
        "tpu.resident",
        key,
        compute,
        name=name,
        canonical=canonical,
        # Elided fills/drains void the dense DRAM roof: compute roof only.
        check=lambda result: audit_invariants.check_tpu_layer(
            "tpu.resident",
            config,
            result,
            macs=spec.macs,
            context=audit_invariants.fingerprint_context(spec, config),
        ),
        verify=lambda result: audit_differential.verify_layer(
            key,
            result,
            schedule,
            reference,
            config=config,
            layer=spec.name or "conv",
            spec=spec,
            input_resident=input_resident,
            output_resident=output_resident,
        ),
    )


def residency_traffic_saved_bytes(
    layers: Sequence[ConvSpec],
    config: TPUConfig = TPU_V2,
    activation_budget_fraction: float = 0.5,
) -> int:
    """DRAM bytes the resident plan avoids: each resident activation skips
    one writeback and one re-read."""
    decisions = plan_residency(layers, config, activation_budget_fraction)
    return sum(2 * d.activation_bytes for d in decisions if d.resident)


def simulate_network_resident(
    name: str,
    layers: Sequence[ConvSpec],
    config: TPUConfig = TPU_V2,
    activation_budget_fraction: float = 0.5,
) -> NetworkResult:
    """Network simulation with chain-edge activation residency."""
    decisions = plan_residency(layers, config, activation_budget_fraction)
    engine = FillEngine(config)
    results = []
    for i, spec in enumerate(layers):
        input_resident = i > 0 and decisions[i - 1].resident
        output_resident = i < len(decisions) and decisions[i].resident
        results.append(
            _layer_cycles(spec, config, engine, input_resident, output_resident)
        )
    return NetworkResult(name=name, layers=results)
