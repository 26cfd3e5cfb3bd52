"""Measurement stand-ins: determinism, noise statistics, plausibility."""

import pytest

from repro.core import ConvSpec, GemmShape
from repro.oracle import GPUOracle, TPUv2Oracle, deterministic_noise


@pytest.fixture
def tpu():
    return TPUv2Oracle()


@pytest.fixture
def gpu():
    return GPUOracle()


@pytest.fixture
def layer():
    return ConvSpec(n=8, c_in=128, h_in=28, w_in=28, c_out=128,
                    h_filter=3, w_filter=3, stride=1, padding=1)


class TestNoise:
    def test_deterministic(self):
        assert deterministic_noise("x", 0.05, 1) == deterministic_noise("x", 0.05, 1)

    def test_bounded(self):
        for i in range(200):
            assert abs(deterministic_noise(f"key{i}", 0.05)) <= 0.05

    def test_zero_amplitude(self):
        assert deterministic_noise("x", 0.0) == 0.0

    def test_key_and_seed_sensitivity(self):
        assert deterministic_noise("a", 0.1) != deterministic_noise("b", 0.1)
        assert deterministic_noise("a", 0.1, 1) != deterministic_noise("a", 0.1, 2)

    def test_roughly_uniform(self):
        values = [deterministic_noise(f"k{i}", 1.0) for i in range(500)]
        mean = sum(values) / len(values)
        assert abs(mean) < 0.15
        assert min(values) < -0.8 and max(values) > 0.8

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            deterministic_noise("x", -1.0)


class TestTPUOracle:
    def test_gemm_cycles_plausible(self, tpu):
        """A big square GEMM must land between 100% and ~130% of the ideal
        systolic cycle count."""
        shape = GemmShape(4096, 4096, 4096)
        ideal = (4096 / 128) * (4096 / 128) * 4096
        measured = tpu.measured_gemm_cycles(shape)
        assert ideal * 0.9 <= measured <= ideal * 1.3

    def test_conv_cycles_positive_and_deterministic(self, tpu, layer):
        a = tpu.measured_conv_cycles(layer)
        assert a > 0
        assert a == tpu.measured_conv_cycles(layer)

    def test_conv_tflops_near_or_below_peak(self, tpu, layer):
        """Measurement noise can nudge a near-peak layer slightly above the
        nominal peak (as real measurements do); it must stay within the
        noise band."""
        tflops = tpu.measured_conv_tflops(layer)
        assert 0 < tflops <= tpu.config.peak_tflops * (1 + tpu.noise_amplitude + 0.01)

    def test_multi_tile_policy_reflected(self, tpu):
        """Small C_I with the policy engaged must beat the no-merge estimate
        implied by 9 full passes."""
        small = ConvSpec(n=8, c_in=8, h_in=64, w_in=64, c_out=128,
                         h_filter=3, w_filter=3, padding=1)
        tflops = tpu.measured_conv_tflops(small)
        # With merge: 3 groups instead of 9 -> ~3x the unmerged throughput.
        assert tflops > 1.0

    def test_network_cycles_sum(self, tpu, layer):
        assert tpu.measured_network_cycles([layer, layer]) == pytest.approx(
            2 * tpu.measured_conv_cycles(layer)
        )

    def test_stride_fragmentation_surcharge(self, tpu, layer):
        """Strided convs pay a memory fragmentation factor (only visible on
        memory-bound shapes, but the factor must never make stride cheaper
        per MAC)."""
        s2 = layer.with_stride(2)
        per_mac_1 = tpu.measured_conv_cycles(layer) / layer.macs
        per_mac_2 = tpu.measured_conv_cycles(s2) / s2.macs
        assert per_mac_2 > 0.8 * per_mac_1


class TestGPUOracle:
    def test_implicit_seconds_deterministic(self, gpu, layer):
        assert gpu.measured_implicit_seconds(layer) == gpu.measured_implicit_seconds(layer)

    def test_explicit_split_reported(self, gpu, layer):
        result = gpu.measured_explicit(layer)
        assert result.transform.seconds > 0
        assert result.gemm.seconds > 0
        assert result.workspace_bytes == layer.lowered_bytes(2)

    def test_explicit_noise_independent_per_kernel(self, gpu, layer):
        """Transform and GEMM perturb independently (separate profiler
        entries)."""
        a = gpu.measured_explicit(layer)
        clean = GPUOracle(noise_amplitude=0.0).measured_explicit(layer)
        t_factor = a.transform.seconds / clean.transform.seconds
        g_factor = a.gemm.seconds / clean.gemm.seconds
        assert t_factor != pytest.approx(g_factor, abs=1e-9)

    def test_tflops_below_peak(self, gpu, layer):
        seconds = gpu.measured_implicit_seconds(layer)
        assert 0 < layer.macs / seconds < gpu.config.peak_macs_per_s
