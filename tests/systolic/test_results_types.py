"""LayerResult / NetworkResult semantics and edge cases."""

import dataclasses

import pytest

from repro.core import ConvSpec
from repro.systolic import LayerResult, NetworkResult, TPUSim


@pytest.fixture(scope="module")
def result():
    layer = ConvSpec(n=4, c_in=64, h_in=14, w_in=14, c_out=64,
                     h_filter=3, w_filter=3, padding=1)
    return TPUSim().simulate_conv(layer)


def test_no_seconds_attribute(result):
    """cycles are the unit of record; seconds exist only via a network's
    latency_s()."""
    assert not hasattr(result, "seconds")
    with pytest.raises(AttributeError):
        _ = result.seconds


def test_latency_conversion(result):
    net = NetworkResult(name="one", layers=[result])
    assert net.latency_s(0.7) == pytest.approx(result.cycles / 0.7e9)


def test_result_is_frozen(result):
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.cycles = 0


def test_replace_supported(result):
    clone = dataclasses.replace(result, name="renamed")
    assert clone.name == "renamed"
    assert clone.cycles == result.cycles


def test_breakdown_consistency(result):
    """Compute + exposed DMA == total (by definition of exposure)."""
    assert result.compute_cycles + result.exposed_dma_cycles == pytest.approx(
        result.cycles
    )
    assert result.dma_cycles > 0


def test_network_empty_layers():
    net = NetworkResult(name="empty", layers=[])
    assert net.total_cycles == 0
    assert net.tflops(0.7) == 0.0


def test_network_aggregates(result):
    net = NetworkResult(name="two", layers=[result, result])
    assert net.total_cycles == pytest.approx(2 * result.cycles)
    assert net.total_macs == 2 * result.macs
    assert net.tflops(0.7) == pytest.approx(result.tflops, rel=0.01)


def test_aggregate_accessors_are_properties(result):
    """Regression: derived quantities on result types must be attribute
    access, never bound methods — ``net.total_cycles`` evaluating to a method
    object is always truthy and silently poisons comparisons."""
    net = NetworkResult(name="one", layers=[result])
    for obj, names in (
        (net, ("total_cycles", "total_macs")),
        (result, ("cycles", "macs", "compute_cycles", "exposed_dma_cycles")),
    ):
        for name in names:
            value = getattr(obj, name)
            assert not callable(value), f"{type(obj).__name__}.{name} is a method"
            assert isinstance(value, (int, float))
