"""Grouped and depthwise convolution."""

import numpy as np
import pytest

from repro.core import ConvSpec, GroupedConvSpec, depthwise_spec, direct_conv2d, grouped_conv2d


@pytest.fixture
def base():
    return ConvSpec(n=2, c_in=8, h_in=6, w_in=6, c_out=8,
                    h_filter=3, w_filter=3, stride=1, padding=1)


def _operands(spec: GroupedConvSpec, seed=0):
    rng = np.random.default_rng(seed)
    ifmap = rng.integers(-3, 4, spec.base.ifmap_shape).astype(np.float64)
    weights = rng.integers(-3, 4, spec.weight_shape).astype(np.float64)
    return ifmap, weights


class TestEquivalences:
    def test_groups_1_equals_dense(self, base):
        grouped = GroupedConvSpec(base=base, groups=1)
        ifmap, weights = _operands(grouped)
        assert np.array_equal(
            grouped_conv2d(ifmap, weights, grouped), direct_conv2d(ifmap, weights, base)
        )

    def test_grouped_is_blockdiagonal_dense(self, base):
        """A grouped conv equals the dense conv with a block-diagonal weight
        tensor (zeros across groups)."""
        grouped = GroupedConvSpec(base=base, groups=2)
        ifmap, weights = _operands(grouped, seed=1)
        dense_weights = np.zeros(base.filter_shape)
        cin_g = base.c_in // 2
        cout_g = base.c_out // 2
        for g in range(2):
            dense_weights[g * cout_g : (g + 1) * cout_g, g * cin_g : (g + 1) * cin_g] = (
                weights[g * cout_g : (g + 1) * cout_g]
            )
        assert np.array_equal(
            grouped_conv2d(ifmap, weights, grouped),
            direct_conv2d(ifmap, dense_weights, base),
        )

    def test_depthwise_per_channel(self):
        """Depthwise: each output channel depends on its input channel only."""
        spec = depthwise_spec(n=1, channels=4, hw=5)
        ifmap, weights = _operands(spec, seed=2)
        out = grouped_conv2d(ifmap, weights, spec)
        bumped = ifmap.copy()
        bumped[:, 0] += 1.0
        out_bumped = grouped_conv2d(bumped, weights, spec)
        assert not np.array_equal(out[:, 0], out_bumped[:, 0])
        assert np.array_equal(out[:, 1:], out_bumped[:, 1:])


class TestAccounting:
    def test_macs_divide_by_groups(self, base):
        for groups in (1, 2, 4, 8):
            grouped = GroupedConvSpec(base=base, groups=groups)
            assert grouped.macs == base.macs // groups

    def test_weight_shape(self, base):
        grouped = GroupedConvSpec(base=base, groups=4)
        assert grouped.weight_shape == (8, 2, 3, 3)

    def test_depthwise_flag(self, base):
        """A depthwise layer has one group per channel, in and out."""
        spec = depthwise_spec(n=1, channels=8, hw=6)
        assert spec.groups == spec.base.c_in == spec.base.c_out == 8

    def test_per_group_spec(self, base):
        group_spec = GroupedConvSpec(base=base, groups=4).per_group_spec()
        assert group_spec.c_in == 2 and group_spec.c_out == 2
        assert group_spec.h_in == base.h_in


class TestValidation:
    def test_groups_must_divide(self, base):
        with pytest.raises(ValueError):
            GroupedConvSpec(base=base, groups=3)

    def test_positive_groups(self, base):
        with pytest.raises(ValueError):
            GroupedConvSpec(base=base, groups=0)

    def test_operand_shapes(self, base):
        grouped = GroupedConvSpec(base=base, groups=2)
        ifmap, weights = _operands(grouped)
        with pytest.raises(ValueError):
            grouped_conv2d(ifmap[:1], weights, grouped)
        with pytest.raises(ValueError):
            grouped_conv2d(ifmap, weights[:, :1], grouped)
