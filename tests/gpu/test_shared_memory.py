"""Shared-memory staging traffic models for the three conv paths."""

import pytest

from repro.core import ConvSpec
from repro.gpu import (
    V100,
    channel_first_fill_bytes,
    channel_last_fill_bytes,
    gemm_a_traffic_bytes,
    gemm_b_traffic_bytes,
    gemm_c_traffic_bytes,
)


@pytest.fixture
def spec():
    return ConvSpec(n=8, c_in=64, h_in=56, w_in=56, c_out=128,
                    h_filter=3, w_filter=3, stride=1, padding=1)


class TestGemmTraffic:
    def test_a_reloads_per_n_column(self):
        one_col = gemm_a_traffic_bytes(100_000, 512, 128, V100)
        two_col = gemm_a_traffic_bytes(100_000, 512, 256, V100)
        assert two_col == 2 * one_col

    def test_l2_caps_small_operands(self):
        """A B-matrix that fits L2 streams from DRAM once regardless of the
        number of M-tiles re-reading it."""
        small_b = gemm_b_traffic_bytes(100_000, 512, 128, V100)
        assert small_b == 512 * 128 * V100.elem_bytes

    def test_l2_miss_for_huge_operands(self):
        big_b = gemm_b_traffic_bytes(100_000, 8192, 8192, V100)
        assert big_b > 8192 * 8192 * V100.elem_bytes

    def test_c_written_once(self):
        assert gemm_c_traffic_bytes(1000, 128, V100) == 1000 * 128 * 2


class TestChannelLastFill:
    def test_footprint_does_not_shrink_like_compute(self, spec):
        """Fig 3's asymmetry: stride-2 compute is ~1/4, but the channel-last
        staged footprint shrinks much less."""
        base = channel_last_fill_bytes(spec, V100)
        strided = channel_last_fill_bytes(spec.with_stride(2), V100)
        assert strided > base / 3  # nowhere near the ~1/4 compute shrink

    def test_reloads_with_output_channels(self, spec):
        import dataclasses
        wide = dataclasses.replace(spec, c_out=256)
        assert channel_last_fill_bytes(wide, V100) == 2 * channel_last_fill_bytes(spec, V100)

    def test_includes_halo(self, spec):
        """Staged bytes exceed the raw IFMap (filter halo re-staging)."""
        assert channel_last_fill_bytes(spec, V100) > spec.ifmap_bytes(2)


class TestChannelFirstFill:
    def test_shrinks_quadratically_with_stride(self, spec):
        base = channel_first_fill_bytes(spec, V100)
        strided = channel_first_fill_bytes(spec.with_stride(2), V100)
        assert strided < base / 3

    def test_reuse_reduces_traffic(self, spec):
        none = channel_first_fill_bytes(spec, V100, reuse_fraction=0.0)
        high = channel_first_fill_bytes(spec, V100, reuse_fraction=0.8)
        assert high < 0.4 * none

    def test_full_reuse_leaves_one_fill(self, spec):
        limit = channel_first_fill_bytes(spec, V100, reuse_fraction=0.999)
        per_position = spec.lowered_rows() * spec.c_in * 2
        assert limit == pytest.approx(per_position, rel=0.05)

    def test_reuse_fraction_bounds(self, spec):
        with pytest.raises(ValueError):
            channel_first_fill_bytes(spec, V100, reuse_fraction=1.0)
        with pytest.raises(ValueError):
            channel_first_fill_bytes(spec, V100, reuse_fraction=-0.1)

    def test_pointwise_single_position(self):
        spec = ConvSpec(n=8, c_in=64, h_in=28, w_in=28, c_out=64,
                        h_filter=1, w_filter=1)
        bytes_ = channel_first_fill_bytes(spec, V100, reuse_fraction=0.0)
        assert bytes_ == spec.lowered_rows() * spec.c_in * 2
