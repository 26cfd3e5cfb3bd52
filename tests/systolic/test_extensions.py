"""TPUSim extensions: energy model, channel-last counterfactual, multicore."""

import dataclasses

import pytest

from repro.core import ConvSpec
from repro.systolic import (
    EnergyModel,
    TPU_V2,
    TPUSim,
    scaling_efficiency,
    simulate_conv_channel_last,
    simulate_conv_multicore,
)


@pytest.fixture(scope="module")
def layer():
    return ConvSpec(n=64, c_in=128, h_in=28, w_in=28, c_out=128,
                    h_filter=3, w_filter=3, stride=1, padding=1)


@pytest.fixture(scope="module")
def sim():
    return TPUSim()


class TestChannelLastCounterfactual:
    def test_parity_at_stride_1(self, layer, sim):
        cf = sim.simulate_conv(layer).tflops
        cl = simulate_conv_channel_last(layer, TPU_V2).tflops
        assert cl == pytest.approx(cf, rel=0.15)

    def test_collapse_at_stride(self, layer, sim):
        """The paper's core inference: a channel-last TPU would show the
        GPU's stride cliff; channel-first does not."""
        for stride, min_advantage in ((2, 1.3), (4, 3.0)):
            spec = layer.with_stride(stride)
            cf = sim.simulate_conv(spec).tflops
            cl = simulate_conv_channel_last(spec, TPU_V2).tflops
            assert cf / cl > min_advantage

    def test_macs_conserved(self, layer):
        result = simulate_conv_channel_last(layer, TPU_V2)
        assert result.macs == layer.macs
        assert result.cycles > 0


class TestEnergyModel:
    def test_components_positive(self, layer, sim):
        result = sim.simulate_conv(layer)
        energy = EnergyModel().layer_energy(layer, result)
        for component in ("compute", "sram", "dram", "static"):
            assert energy.fraction(component) > 0
        assert energy.total_j > 0

    def test_fractions_sum_to_one(self, layer, sim):
        result = sim.simulate_conv(layer)
        energy = EnergyModel().layer_energy(layer, result)
        total = sum(energy.fraction(c) for c in ("compute", "sram", "dram", "static"))
        assert total == pytest.approx(1.0)

    def test_energy_per_mac_plausible(self, layer, sim):
        """System-level pJ/MAC in the 0.5-5 range for a busy bf16 core."""
        result = sim.simulate_conv(layer)
        pj = EnergyModel().energy_per_mac_pj(layer, result)
        assert 0.3 < pj < 5.0

    def test_narrow_words_cost_more(self, layer):
        """Per-access overhead dominates narrow words (the energy knee)."""
        values = {}
        for word in (2, 8, 32):
            config = TPU_V2.with_word_elems(word)
            result = TPUSim(config).simulate_conv(layer)
            values[word] = EnergyModel(config=config).energy_per_mac_pj(layer, result)
        assert values[2] > values[8] > values[32]
        # ... with diminishing savings past the knee
        assert values[2] - values[8] > values[8] - values[32]

    def test_idle_layer_rejected(self, layer, sim):
        result = sim.simulate_conv(layer)
        bogus = dataclasses.replace(result, macs=0)
        with pytest.raises(ValueError):
            EnergyModel().energy_per_mac_pj(layer, bogus)


class TestMulticore:
    def test_two_cores_near_2x(self, layer):
        one = simulate_conv_multicore(layer, 1)
        two = simulate_conv_multicore(layer, 2)
        speedup = one.cycles / two.cycles
        assert 1.7 < speedup <= 2.0

    def test_efficiency_monotonically_decays(self, layer):
        table = scaling_efficiency(layer, core_counts=(1, 2, 4, 8))
        efficiencies = [table[c][1] for c in sorted(table)]
        assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(efficiencies, efficiencies[1:]))
        assert efficiencies[0] == pytest.approx(1.0)

    def test_never_superlinear(self, layer):
        for cores, (speedup, efficiency) in scaling_efficiency(layer).items():
            assert speedup <= cores * (1 + 1e-9)

    def test_total_macs_preserved(self, layer):
        result = simulate_conv_multicore(layer, 4)
        assert result.per_core.macs * result.cores == pytest.approx(layer.macs, rel=0.01)

    def test_batch_smaller_than_cores_rejected(self):
        tiny = ConvSpec(n=2, c_in=8, h_in=8, w_in=8, c_out=8, h_filter=3, w_filter=3, padding=1)
        with pytest.raises(ValueError):
            simulate_conv_multicore(tiny, 4)

    def test_invalid_cores(self, layer):
        with pytest.raises(ValueError):
            simulate_conv_multicore(layer, 0)
