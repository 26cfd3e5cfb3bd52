"""TPUSim: functional correctness on the scheduled tile sequence, timing
shapes, and the paper's headline TPU behaviours."""

import numpy as np
import pytest

from repro.core import ConvSpec, GemmShape, random_conv_operands
from repro.systolic import TPU_V2, TPUSim


@pytest.fixture(scope="module")
def sim():
    return TPUSim()


class TestFunctional:
    def test_small_array_conv(self, small_spec):
        small_sim = TPUSim(TPU_V2.with_array(8))
        ifmap, weights = random_conv_operands(small_spec, seed=1)
        # verify=True raises on divergence
        small_sim.run_functional_conv(small_spec, ifmap, weights)

    def test_strided_conv(self, strided_spec):
        small_sim = TPUSim(TPU_V2.with_array(4))
        ifmap, weights = random_conv_operands(strided_spec, seed=2)
        small_sim.run_functional_conv(strided_spec, ifmap, weights)

    def test_multi_tile_groups(self):
        """Channels smaller than the array trigger multi-tile merging; the
        merged K chunks must still accumulate correctly."""
        spec = ConvSpec(n=2, c_in=2, h_in=5, w_in=5, c_out=3,
                        h_filter=3, w_filter=3, stride=1, padding=1)
        small_sim = TPUSim(TPU_V2.with_array(4))
        ifmap, weights = random_conv_operands(spec, seed=3)
        out = small_sim.run_functional_conv(spec, ifmap, weights, group_size=2)
        assert out.shape == spec.ofmap_shape

    def test_k_chunking_over_array(self):
        """C_I larger than the array forces K chunking across passes."""
        spec = ConvSpec(n=1, c_in=10, h_in=4, w_in=4, c_out=3,
                        h_filter=1, w_filter=1)
        small_sim = TPUSim(TPU_V2.with_array(4))
        ifmap, weights = random_conv_operands(spec, seed=4)
        small_sim.run_functional_conv(spec, ifmap, weights)


class TestTimingShapes:
    def test_big_gemm_near_peak(self, sim):
        result = sim.simulate_gemm(GemmShape(8192, 8192, 8192))
        assert result.utilization > 0.9
        assert result.tflops > 0.9 * sim.config.peak_tflops

    def test_small_gemm_lower_utilization(self, sim):
        small = sim.simulate_gemm(GemmShape(256, 256, 256))
        big = sim.simulate_gemm(GemmShape(4096, 4096, 4096))
        assert small.utilization < big.utilization

    def test_stride_insensitivity(self, sim):
        """Fig 4b: channel-first TFLOPS barely moves with stride."""
        layer = ConvSpec(n=64, c_in=128, h_in=28, w_in=28, c_out=128,
                         h_filter=3, w_filter=3, stride=1, padding=1)
        base = sim.simulate_conv(layer).tflops
        for stride in (2, 4):
            assert sim.simulate_conv(layer.with_stride(stride)).tflops > 0.8 * base

    def test_multi_tile_speedup_and_plateau(self, sim):
        """Fig 14a: speedup up to W_F tiles, then a plateau."""
        layer = ConvSpec(n=8, c_in=8, h_in=128, w_in=128, c_out=128,
                         h_filter=3, w_filter=3, stride=1, padding=1)
        tflops = {g: sim.simulate_conv(layer, group_size=g).tflops for g in (1, 2, 3, 4)}
        assert tflops[2] > 1.3 * tflops[1]
        assert tflops[3] > 1.5 * tflops[2]
        assert tflops[4] == pytest.approx(tflops[3], rel=0.02)

    def test_policy_applied_by_default(self, sim):
        layer = ConvSpec(n=8, c_in=8, h_in=64, w_in=64, c_out=128,
                         h_filter=3, w_filter=3, padding=1)
        result = sim.simulate_conv(layer)
        assert result.group_size == 3

    def test_array_size_tradeoff(self):
        """Fig 16a: bigger arrays raise TFLOPS but lower utilization."""
        layer = ConvSpec(n=8, c_in=64, h_in=56, w_in=56, c_out=64,
                         h_filter=3, w_filter=3, padding=1)
        small = TPUSim(TPU_V2.with_array(64)).simulate_conv(layer)
        big = TPUSim(TPU_V2.with_array(256)).simulate_conv(layer)
        assert big.tflops > small.tflops
        assert big.utilization < small.utilization

    def test_cycles_positive_and_consistent(self, sim, small_spec):
        result = sim.simulate_conv(small_spec.with_batch(8))
        assert result.cycles > 0
        assert result.macs == small_spec.with_batch(8).macs


class TestNetworkAggregation:
    def test_network_result_sums_layers(self, sim):
        layers = [
            ConvSpec(n=8, c_in=128, h_in=14, w_in=14, c_out=128,
                     h_filter=3, w_filter=3, padding=1, name="a"),
            ConvSpec(n=8, c_in=128, h_in=14, w_in=14, c_out=256,
                     h_filter=1, w_filter=1, name="b"),
        ]
        net = sim.simulate_network("tiny", layers)
        assert net.total_cycles == pytest.approx(sum(r.cycles for r in net.layers))
        assert net.total_macs == sum(l.macs for l in layers)
        assert net.tflops(0.7) > 0
        assert net.latency_s(0.7) > 0
