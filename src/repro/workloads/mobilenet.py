"""MobileNet-v1: the depthwise-separable workload (extension study).

MobileNet is the canonical stress test for GEMM-based convolution — half its
layers are depthwise (one channel per group, K depth 1 for the GEMM engine)
and the other half are 1x1 pointwise (pure GEMM).  The extension experiments
use it to show where the channel-first machinery shines (pointwise) and
where GEMM engines fundamentally struggle (depthwise), quantifying the
paper's implicit boundary.

The table is the standard 224x224, width-1.0 MobileNet-v1: a stem conv, 13
depthwise-separable blocks (depthwise 3x3 + pointwise 1x1).
"""

from __future__ import annotations

from typing import List, Union

from ..core.conv_spec import ConvSpec
from ..core.grouped import GroupedConvSpec

__all__ = ["mobilenet_v1"]

#: (in_channels, hw_in, out_channels, depthwise stride) per separable block.
_BLOCKS = [
    (32, 112, 64, 1),
    (64, 112, 128, 2),
    (128, 56, 128, 1),
    (128, 56, 256, 2),
    (256, 28, 256, 1),
    (256, 28, 512, 2),
    (512, 14, 512, 1),
    (512, 14, 512, 1),
    (512, 14, 512, 1),
    (512, 14, 512, 1),
    (512, 14, 512, 1),
    (512, 14, 1024, 2),
    (1024, 7, 1024, 1),
]

LayerLike = Union[ConvSpec, GroupedConvSpec]


def mobilenet_v1(batch: int = 1) -> List[LayerLike]:
    """All conv layers: the stem, then (depthwise, pointwise) per block.

    Depthwise layers are returned as :class:`GroupedConvSpec` (callers
    dispatch on the type); pointwise as plain :class:`ConvSpec`.
    """
    layers: List[LayerLike] = [
        ConvSpec(n=batch, c_in=3, h_in=224, w_in=224, c_out=32,
                 h_filter=3, w_filter=3, stride=2, padding=1,
                 name="mobilenet.conv1"),
    ]
    for index, (c_in, hw, c_out, stride) in enumerate(_BLOCKS, start=1):
        dw_base = ConvSpec(
            n=batch, c_in=c_in, h_in=hw, w_in=hw, c_out=c_in,
            h_filter=3, w_filter=3, stride=stride, padding=1,
            name=f"mobilenet.b{index}.dw",
        )
        layers.append(GroupedConvSpec(base=dw_base, groups=c_in))
        pw_hw = hw // stride
        layers.append(
            ConvSpec(
                n=batch, c_in=c_in, h_in=pw_hw, w_in=pw_hw, c_out=c_out,
                h_filter=1, w_filter=1, stride=1, padding=0,
                name=f"mobilenet.b{index}.pw",
            )
        )
    return layers
