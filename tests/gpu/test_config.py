"""GPUConfig invariants and V100 derived numbers."""

import dataclasses

import pytest

from repro.gpu import GPUConfig, TileConfig, V100


def test_v100_peak_tflops():
    # 80 SMs x 512 MACs x 1.53 GHz x 2 = 125.4 TFLOPS
    assert 2 * V100.peak_macs_per_s / 1e12 == pytest.approx(125.4, rel=0.01)


def test_sustained_rates_below_peak():
    assert V100.sustained_macs_per_s < V100.peak_macs_per_s
    assert V100.sustained_bandwidth_bps < V100.hbm_bandwidth_gbps * 1e9
    assert V100.staging_bandwidth_bps < V100.sustained_bandwidth_bps


def test_tile_defaults():
    assert (V100.tile.tile_m, V100.tile.tile_n, V100.tile.tile_k) == (128, 128, 32)


def test_tile_validation():
    with pytest.raises(ValueError):
        TileConfig(tile_m=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_sms", 0),
        ("clock_ghz", 0),
        ("compute_efficiency", 1.5),
        ("staging_efficiency", 0),
        ("hbm_bandwidth_gbps", -1),
        ("l2_bytes", -1),
    ],
)
def test_invalid_fields(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(V100, **{field: value})
