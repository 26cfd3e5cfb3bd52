"""The three GPU conv paths and the cuDNN stand-in: Fig 2a/4a/17/18 shapes."""

import pytest

from repro.core import ConvSpec
from repro.gpu import (
    V100,
    channel_first_conv_time,
    channel_last_conv_time,
    cudnn_conv_time,
    explicit_conv_time,
    gemm_kernel_time,
    im2col_transform_time,
    kernel_time,
)


@pytest.fixture
def layer():
    return ConvSpec(n=8, c_in=128, h_in=28, w_in=28, c_out=128,
                    h_filter=3, w_filter=3, stride=1, padding=1)


@pytest.fixture
def big_layer():
    return ConvSpec(n=64, c_in=64, h_in=56, w_in=56, c_out=64,
                    h_filter=3, w_filter=3, stride=1, padding=1)


class TestKernelTime:
    def test_overlap_bound(self):
        kt = kernel_time("k", 4096, 4096, 4096, traffic_bytes=10**6, config=V100)
        assert kt.seconds == pytest.approx(
            max(kt.compute_seconds, kt.memory_seconds) + V100.kernel_overhead_s
        )

    def test_staged_priced_slower(self):
        streamed = kernel_time("s", 1024, 64, 64, traffic_bytes=10**8, config=V100)
        staged = kernel_time("g", 1024, 64, 64, traffic_bytes=0, config=V100,
                             staged_bytes=10**8)
        assert staged.memory_seconds > streamed.memory_seconds

    def test_tflops_uses_logical_macs(self):
        kt = kernel_time("k", 100, 100, 100, traffic_bytes=1, config=V100, macs=10**6)
        assert kt.tflops == pytest.approx(2e6 / kt.seconds / 1e12)

    def test_scaled(self):
        kt = kernel_time("k", 128, 128, 128, traffic_bytes=1, config=V100)
        assert kt.scaled(2.0).seconds == pytest.approx(2 * kt.seconds)
        with pytest.raises(ValueError):
            kt.scaled(0)

    def test_negative_traffic_rejected(self):
        with pytest.raises(ValueError):
            kernel_time("k", 1, 1, 1, traffic_bytes=-1, config=V100)


class TestExplicitPath:
    def test_transform_is_pure_bandwidth(self, layer):
        t = im2col_transform_time(layer, V100)
        assert t.compute_seconds == 0.0
        assert t.macs == 0
        assert t.traffic_bytes == layer.ifmap_bytes(2) + layer.lowered_bytes(2)

    def test_explicit_total_is_sum(self, layer):
        result = explicit_conv_time(layer, V100)
        assert result.seconds == pytest.approx(result.transform.seconds + result.gemm.seconds)
        assert result.workspace_bytes == layer.lowered_bytes(2)

    def test_explicit_slower_than_implicit(self, big_layer):
        """Fig 2a: the transform is pure overhead over the implicit path."""
        explicit = explicit_conv_time(big_layer, V100).seconds
        implicit = cudnn_conv_time(big_layer, V100).seconds
        assert explicit > implicit

    def test_explicit_gemm_tracks_implicit(self):
        """Fig 2a's second observation: on compute-bound layers the explicit
        path's GEMM component is close to the implicit method's total (on
        low-C_O layers the lowered A-panel makes the explicit GEMM itself
        memory-bound and slower — also visible in the paper's DenseNet bar)."""
        layer = ConvSpec(n=64, c_in=256, h_in=14, w_in=14, c_out=256,
                         h_filter=3, w_filter=3, stride=1, padding=1)
        explicit = explicit_conv_time(layer, V100)
        implicit = cudnn_conv_time(layer, V100)
        assert explicit.gemm.seconds == pytest.approx(implicit.seconds, rel=0.2)


class TestStrideBehaviour:
    def test_channel_last_degrades_with_stride(self, big_layer):
        """Fig 4a: TFLOPS drops hard at stride 2 and 4."""
        t = {s: channel_last_conv_time(big_layer.with_stride(s), V100).tflops
             for s in (1, 2, 4)}
        assert t[2] < 0.85 * t[1]
        assert t[4] < 0.5 * t[1]

    def test_gemm_reference_stays_high(self, big_layer):
        """Fig 4a: the equivalent GEMM does not collapse with stride."""
        t = {s: gemm_kernel_time(big_layer.with_stride(s).gemm_shape(), V100).tflops
             for s in (1, 2, 4)}
        assert t[4] > 0.5 * t[1]

    def test_channel_first_beats_channel_last_at_stride(self):
        """Fig 18a's mechanism."""
        layer = ConvSpec(n=8, c_in=128, h_in=56, w_in=56, c_out=128,
                         h_filter=3, w_filter=3, stride=2, padding=1)
        ours = channel_first_conv_time(layer, V100).seconds
        cudnn = cudnn_conv_time(layer, V100).seconds
        assert ours < cudnn

    def test_near_parity_at_stride_1(self, layer):
        """Fig 17: within a few percent of cuDNN at stride 1."""
        ours = channel_first_conv_time(layer, V100).seconds
        cudnn = cudnn_conv_time(layer, V100).seconds
        assert ours / cudnn == pytest.approx(1.0, abs=0.08)


class TestChannelFirstDetails:
    def test_reorder_reduces_time_when_memory_bound(self):
        layer = ConvSpec(n=8, c_in=384, h_in=13, w_in=13, c_out=384,
                         h_filter=3, w_filter=3, padding=1)
        reuse = channel_first_conv_time(layer, V100, reorder=True)
        naive = channel_first_conv_time(layer, V100, reorder=False)
        assert reuse.seconds < naive.seconds
        assert reuse.reuse_fraction > 0.5
        assert naive.reuse_fraction == 0.0

    def test_result_carries_flags(self, layer):
        result = channel_first_conv_time(layer, V100, reorder=True)
        assert result.reordered
        assert result.tflops > 0

    def test_addressing_overhead_bounds(self, layer):
        with pytest.raises(ValueError):
            channel_first_conv_time(layer, V100, addressing_overhead=1.0)
        with pytest.raises(ValueError):
            channel_last_conv_time(layer, V100, addressing_overhead=-0.1)


class TestCudnnModel:
    def test_deterministic(self, layer):
        a = cudnn_conv_time(layer, V100).seconds
        b = cudnn_conv_time(layer, V100).seconds
        assert a == b

    def test_noise_is_small(self, layer):
        noisy = cudnn_conv_time(layer, V100, noise_amplitude=0.015).seconds
        clean = cudnn_conv_time(layer, V100, noise_amplitude=0.0).seconds
        assert abs(noisy / clean - 1) < 0.02

    def test_seed_changes_noise(self, layer):
        a = cudnn_conv_time(layer, V100, seed=1).seconds
        b = cudnn_conv_time(layer, V100, seed=2).seconds
        assert a != b
