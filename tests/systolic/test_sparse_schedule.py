"""Position-sparse scheduling on the TPU."""

import pytest

from repro.core import ConvSpec, PositionMask, prune_positions, random_conv_operands
from repro.systolic import TPUSim, simulate_conv_sparse, sparse_channel_first_schedule
from repro.systolic.config import TPU_V2


@pytest.fixture(scope="module")
def layer():
    return ConvSpec(n=8, c_in=128, h_in=28, w_in=28, c_out=128,
                    h_filter=3, w_filter=3, stride=1, padding=1)


@pytest.fixture(scope="module")
def dense_cycles(layer):
    return TPUSim().simulate_conv(layer).cycles


def _mask(layer, keep):
    _, weights = random_conv_operands(layer, seed=keep)
    _, mask = prune_positions(weights, layer, keep=keep)
    return mask


def test_full_mask_matches_dense(layer, dense_cycles):
    sparse = simulate_conv_sparse(layer, _mask(layer, 9))
    assert sparse.cycles == pytest.approx(dense_cycles, rel=0.01)


@pytest.mark.parametrize("keep", [1, 3, 5])
def test_speedup_tracks_density(layer, dense_cycles, keep):
    mask = _mask(layer, keep)
    sparse = simulate_conv_sparse(layer, mask)
    speedup = dense_cycles / sparse.cycles
    ideal = 1.0 / mask.density
    assert 0.75 * ideal <= speedup <= ideal * 1.02


def test_schedule_only_visits_kept_positions(layer):
    mask = _mask(layer, 3)
    items = sparse_channel_first_schedule(layer, mask, TPU_V2)
    dense_items = sparse_channel_first_schedule(layer, _mask(layer, 9), TPU_V2)
    assert len(items) < len(dense_items)
    scheduled = sum(i.macs for i in items)
    assert scheduled == pytest.approx(layer.macs * mask.density, rel=0.01)


def test_sparse_result_accounting(layer):
    mask = _mask(layer, 5)
    result = simulate_conv_sparse(layer, mask)
    assert result.macs == int(layer.macs * mask.density)
    assert 0 < result.utilization <= 1
    assert "sparse" in result.name


def test_mask_spec_mismatch_rejected(layer):
    other = ConvSpec(n=8, c_in=64, h_in=14, w_in=14, c_out=64,
                     h_filter=3, w_filter=3, padding=1)
    mask = _mask(other, 3)
    with pytest.raises(ValueError):
        sparse_channel_first_schedule(layer, mask, TPU_V2)


def test_kept_macs_are_the_schedules_exact_sum():
    """A float density rounds some kept-MAC counts down by one (GoogleNet
    conv1: 7x7 positions, 27 kept); the result reports the schedule's own
    integer sum, which is exactly ``macs * kept // positions``."""
    from repro.workloads.networks import googlenet

    conv1 = googlenet(batch=8)[0]
    mask = PositionMask(conv1, tuple(range(27)))
    assert int(conv1.macs * mask.density) == 520_224_767  # the float's answer
    result = simulate_conv_sparse(conv1, mask)
    assert result.macs == conv1.macs * 27 // 49 == 520_224_768
    assert result.macs == sum(i.macs for i in sparse_channel_first_schedule(conv1, mask))
