"""The TPU's vector unit: non-GEMM layers and the skew-layout argument.

Sec. IV-A rejects the "skew the data layout" alternative to skewed address
generation because "it would lead to frequent skewing and restoring for
other non-GEMM layers such as pooling and batch normalization" — the vector
ALUs that run those layers want a plain layout.  This module models exactly
that trade-off:

- :func:`skew_restore_cycles` — the cost of physically skewing/unskewing a
  feature map across the 128 vector memories (each element moves once
  through the vector unit, plus it occupies the memories' ports);
- :func:`skewed_layout_overhead` — the per-network overhead the rejected
  design would pay: one restore before and one skew after every non-GEMM
  layer sandwiched between convolutions.

The extensions experiment prices the two skew functions to put a number on
the paper's qualitative dismissal.
"""

from __future__ import annotations

from typing import Sequence

from ..core.conv_spec import ConvSpec
from .config import TPUConfig, TPU_V2

__all__ = [
    "skew_restore_cycles",
    "skewed_layout_overhead",
]


def _vector_op_cycles(elements: int, ops_per_element: float, config: TPUConfig) -> float:
    """Elements * ops through the vector ALUs (one op/ALU/cycle)."""
    if elements <= 0:
        raise ValueError("elements must be positive")
    return elements * ops_per_element / config.vector_alus


def skew_restore_cycles(spec: ConvSpec, config: TPUConfig = TPU_V2) -> float:
    """Physically (de)skewing a feature map across the vector memories.

    Every element is read from its memory, routed one row over, and written
    back — two port accesses per element at word granularity through the
    vector unit: ``2 * elements / word_elems`` port word-ops, rate-limited
    by the 128 single ports, plus the element movement through the ALUs.
    """
    elements = spec.ofmap_elements()
    port_word_ops = 2.0 * elements / config.sram_word_elems
    port_cycles = port_word_ops / config.num_vector_memories
    alu_cycles = _vector_op_cycles(elements, 1.0, config)
    return port_cycles + alu_cycles


def skewed_layout_overhead(
    layers: Sequence[ConvSpec],
    non_gemm_after_every_conv: bool = True,
    config: TPUConfig = TPU_V2,
) -> float:
    """Cycles the rejected skewed-data-layout design adds over a network.

    With a physically skewed layout, every non-GEMM layer needs a restore
    before it and a re-skew after it (Sec. IV-A).  Assuming a pooling/BN
    stage after each conv (``non_gemm_after_every_conv``), the overhead is
    two skew passes per conv layer's OFMap.
    """
    if not layers:
        raise ValueError("layers must be non-empty")
    passes = 2 if non_gemm_after_every_conv else 1
    return sum(passes * skew_restore_cycles(layer, config) for layer in layers)
