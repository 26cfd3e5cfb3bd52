"""MobileNet-v1 workload table."""

import pytest

from repro.core import ConvSpec, GroupedConvSpec
from repro.workloads import mobilenet_v1


def test_layer_count():
    layers = mobilenet_v1(1)
    assert len(layers) == 1 + 13 * 2  # stem + (dw + pw) x 13


def test_flops_match_published():
    layers = mobilenet_v1(1)
    gflops = 2 * sum(l.macs for l in layers) / 1e9
    assert 0.9 <= gflops <= 1.3  # published ~1.1 GFLOPs


def test_depthwise_blocks_are_grouped():
    layers = mobilenet_v1(1)
    depthwise = [l for l in layers if isinstance(l, GroupedConvSpec)]
    assert len(depthwise) == 13
    assert all(l.groups == l.base.c_in == l.base.c_out for l in depthwise)


def test_channel_chaining():
    """Each pointwise consumes its depthwise's channels at the right size."""
    layers = mobilenet_v1(1)
    for i in range(1, len(layers) - 1, 2):
        dw = layers[i]
        pw = layers[i + 1]
        assert isinstance(dw, GroupedConvSpec) and isinstance(pw, ConvSpec)
        assert pw.c_in == dw.base.c_out
        assert pw.h_in == dw.base.h_out


def test_pointwise_only_subset():
    """The dense layers (stem + pointwise) are what the GEMM engine runs."""
    dense = [l for l in mobilenet_v1(1) if isinstance(l, ConvSpec)]
    assert all(isinstance(l, ConvSpec) for l in dense)
    assert len(dense) == 14
    assert all(l.is_pointwise() for l in dense[1:])


def test_batch_parameter():
    assert all(
        (l.base.n if isinstance(l, GroupedConvSpec) else l.n) == 4
        for l in mobilenet_v1(4)
    )


def test_final_resolution():
    last = mobilenet_v1(1)[-1]
    assert last.h_out == 7
