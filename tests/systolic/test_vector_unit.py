"""Vector-unit timing and the skew-layout overhead argument."""

import pytest

from repro.core import ConvSpec
from repro.systolic import skew_restore_cycles, skewed_layout_overhead
from repro.workloads import vgg16


@pytest.fixture
def layer():
    return ConvSpec(n=8, c_in=64, h_in=56, w_in=56, c_out=64,
                    h_filter=3, w_filter=3, padding=1)


class TestSkewLayout:
    def test_skew_restore_scales_with_ofmap(self, layer):
        small = skew_restore_cycles(layer)
        big = skew_restore_cycles(layer.with_batch(16))
        assert big == pytest.approx(2 * small)

    def test_network_overhead_meaningful_but_minor(self):
        """The rejected design's overhead is a real (>5%) but not dominant
        (<40%) fraction of VGG16's conv time — big enough to justify skewed
        addressing, small enough that the argument needed making."""
        from repro.systolic import TPUSim

        layers = vgg16(batch=8)
        sim = TPUSim()
        conv = sum(sim.simulate_conv(l).cycles for l in layers)
        skew = skewed_layout_overhead(layers)
        assert 0.05 < skew / conv < 0.4

    def test_single_pass_halves(self):
        layers = vgg16(batch=8)[:3]
        both = skewed_layout_overhead(layers, non_gemm_after_every_conv=True)
        one = skewed_layout_overhead(layers, non_gemm_after_every_conv=False)
        assert both == pytest.approx(2 * one)

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            skewed_layout_overhead([])
