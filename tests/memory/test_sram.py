"""Analytic SRAM macro model: calibration, monotonicity, validity."""

import pytest

from repro.memory import SRAMConfig, SRAMModel

CAP = 256 * 1024


@pytest.fixture
def model():
    return SRAMModel()


class TestCalibration:
    def test_paper_ratio_4B_vs_32B(self, model):
        """Sec. IV-C: 4-byte word ~3.2x the area of a 32-byte word at 256 KB."""
        assert model.area_ratio(CAP, 4, 32) == pytest.approx(3.2, rel=0.15)

    def test_paper_ratio_word1_vs_minimum(self, model):
        """Sec. VII: word of 1 element ~5x the large-word minimum."""
        assert 3.5 <= model.area_ratio(CAP, 4, 128) <= 5.5

    def test_word8_near_knee(self, model):
        """The TPU's 32-byte (8-element) word sits past the steep region:
        going 32B -> 128B saves far less than 4B -> 32B did."""
        steep = model.area_um2(CAP, 4) - model.area_um2(CAP, 32)
        flat = model.area_um2(CAP, 32) - model.area_um2(CAP, 128)
        assert steep > 5 * flat


class TestMonotonicity:
    def test_area_decreases_with_word(self, model):
        areas = [model.area_um2(CAP, w) for w in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert areas == sorted(areas, reverse=True)

    def test_area_increases_with_capacity(self, model):
        assert model.area_um2(2 * CAP, 32) > model.area_um2(CAP, 32)

    def test_energy_increases_with_word(self, model):
        assert model.access_energy_pj(32) > model.access_energy_pj(4)


class TestValidation:
    def test_capacity_word_divisibility(self, model):
        with pytest.raises(ValueError):
            model.area_um2(100, 3)

    def test_positive_args(self, model):
        with pytest.raises(ValueError):
            model.area_um2(0, 4)
        with pytest.raises(ValueError):
            model.access_energy_pj(0)

    def test_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SRAMConfig(cell_area_um2=0)


class TestUnits:
    def test_mm2_conversion(self, model):
        assert model.area_mm2(CAP, 32) == pytest.approx(model.area_um2(CAP, 32) / 1e6)

    def test_reasonable_magnitudes(self, model):
        """A 256 KB macro should be O(1) mm^2."""
        assert 0.3 < model.area_mm2(CAP, 32) < 5.0
