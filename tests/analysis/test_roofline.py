"""Roofline placement."""

import pytest

from repro.analysis import conv_roofline, gemm_roofline
from repro.core import ConvSpec, GemmShape


def test_big_gemm_compute_bound():
    point = gemm_roofline(GemmShape(4096, 4096, 4096), peak_tflops=22.9, bandwidth_gbps=700)
    assert point.bound == "compute"
    assert point.attainable_tflops == pytest.approx(22.9)


def test_skinny_gemm_memory_bound():
    point = gemm_roofline(GemmShape(4096, 1, 4096), peak_tflops=22.9, bandwidth_gbps=700)
    assert point.bound == "memory"
    assert point.attainable_tflops < 22.9


def test_conv_intensity_grows_with_filter():
    small = ConvSpec(n=1, c_in=64, h_in=28, w_in=28, c_out=64, h_filter=1, w_filter=1)
    big = ConvSpec(n=1, c_in=64, h_in=28, w_in=28, c_out=64, h_filter=3, w_filter=3, padding=1)
    p_small = conv_roofline(small, 22.9, 700)
    p_big = conv_roofline(big, 22.9, 700)
    assert p_big.intensity_flops_per_byte > p_small.intensity_flops_per_byte


def test_attainable_never_exceeds_peak():
    layer = ConvSpec(n=64, c_in=512, h_in=14, w_in=14, c_out=512, h_filter=3, w_filter=3, padding=1)
    point = conv_roofline(layer, 22.9, 700)
    assert point.attainable_tflops <= 22.9
