"""Grouped and depthwise convolution (extension study).

Modern efficient CNNs (MobileNet, ResNeXt) use grouped convolutions, whose
extreme form — depthwise, one channel per group — is the *adversarial* case
for any GEMM-lowering strategy: the per-group contraction depth collapses to
``C_I/G``, so a GEMM engine's K dimension starves.  For the channel-first
TPU mapping this is precisely the small-channel regime Sec. IV-B's
multi-tile optimisation targets, with the group structure as an extra
constraint (channels of different groups must not mix in a merged K chunk).

A grouped conv is exactly ``G`` independent convolutions over channel
slices; :class:`GroupedConvSpec` owns that decomposition so everything else
in the library (reference, lowering, simulators) is reused per group —
correct by construction, and the analysis experiments can price the
utilisation cliff directly.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from .conv_spec import ConvSpec
from .reference import direct_conv2d

__all__ = ["GroupedConvSpec", "grouped_conv2d", "depthwise_spec"]


@dataclasses.dataclass(frozen=True)
class GroupedConvSpec:
    """A grouped convolution: ``groups`` independent channel-slice convs.

    ``c_in`` and ``c_out`` are the *total* channel counts; each group sees
    ``c_in/groups`` inputs and produces ``c_out/groups`` outputs.  Weights
    are ``(C_O, C_I/G, H_F, W_F)`` (the framework convention).
    """

    base: ConvSpec
    groups: int

    def __post_init__(self) -> None:
        if self.groups <= 0:
            raise ValueError(f"groups must be positive, got {self.groups}")
        if self.base.c_in % self.groups or self.base.c_out % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide C_I={self.base.c_in} "
                f"and C_O={self.base.c_out}"
            )

    @property
    def weight_shape(self):
        b = self.base
        return (b.c_out, b.c_in // self.groups, b.h_filter, b.w_filter)

    @property
    def macs(self) -> int:
        """Grouped MACs: 1/groups of the dense layer's volume."""
        return self.base.macs // self.groups

    def per_group_spec(self) -> ConvSpec:
        """The ConvSpec of one group's independent convolution."""
        b = self.base
        return dataclasses.replace(
            b,
            c_in=b.c_in // self.groups,
            c_out=b.c_out // self.groups,
            name=f"{b.name or 'conv'}.group",
        )

    def split_operands(self, ifmap: np.ndarray, weights: np.ndarray):
        """Yield (group_ifmap, group_weights) pairs."""
        b = self.base
        if ifmap.shape != b.ifmap_shape:
            raise ValueError(f"ifmap shape {ifmap.shape} != {b.ifmap_shape}")
        if weights.shape != self.weight_shape:
            raise ValueError(f"weights shape {weights.shape} != {self.weight_shape}")
        cin_g = b.c_in // self.groups
        cout_g = b.c_out // self.groups
        for g in range(self.groups):
            yield (
                ifmap[:, g * cin_g : (g + 1) * cin_g],
                weights[g * cout_g : (g + 1) * cout_g],
            )


def grouped_conv2d(
    ifmap: np.ndarray, weights: np.ndarray, spec: GroupedConvSpec
) -> np.ndarray:
    """Reference grouped convolution: concatenated per-group direct convs."""
    group_spec = spec.per_group_spec()
    outputs: List[np.ndarray] = []
    for g_ifmap, g_weights in spec.split_operands(ifmap, weights):
        outputs.append(direct_conv2d(g_ifmap, g_weights, group_spec))
    return np.concatenate(outputs, axis=1)


def depthwise_spec(
    n: int, channels: int, hw: int, f: int = 3, stride: int = 1, name: str = ""
) -> GroupedConvSpec:
    """Convenience constructor for a depthwise layer (groups == channels)."""
    base = ConvSpec(
        n=n, c_in=channels, h_in=hw, w_in=hw, c_out=channels,
        h_filter=f, w_filter=f, stride=stride, padding=f // 2,
        name=name or f"dw{channels}x{hw}",
    )
    return GroupedConvSpec(base=base, groups=channels)
