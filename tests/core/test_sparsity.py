"""Position-structured sparsity: masks, pruning, sparse forward pass."""

import numpy as np
import pytest

from repro.core import (
    PositionMask,
    apply_mask_to_weights,
    conv2d_channel_first_sparse,
    direct_conv2d,
    prune_positions,
    random_conv_operands,
)


class TestMask:
    def test_density(self, small_spec):
        mask = PositionMask(spec=small_spec, kept=(0, 4, 8))
        assert mask.density == pytest.approx(3 / 9)
        assert mask.keeps(4) and not mask.keeps(1)

    def test_kept_tiles(self, small_spec):
        mask = PositionMask(spec=small_spec, kept=(0, 8))
        tiles = mask.kept_tiles()
        assert [(t.r, t.s) for t in tiles] == [(0, 0), (2, 2)]

    def test_validation(self, small_spec):
        with pytest.raises(ValueError):
            PositionMask(spec=small_spec, kept=())
        with pytest.raises(ValueError):
            PositionMask(spec=small_spec, kept=(3, 1))  # unsorted
        with pytest.raises(ValueError):
            PositionMask(spec=small_spec, kept=(0, 9))  # out of range


class TestPruning:
    def test_keeps_largest_norms(self, small_spec):
        _, weights = random_conv_operands(small_spec, seed=1)
        weights = weights.astype(np.float64)
        weights[:, :, 1, 1] *= 100  # make the centre dominant
        weights[:, :, 0, 0] = 0  # and one corner empty
        _, mask = prune_positions(weights, small_spec, keep=1)
        assert mask.kept == (4,)  # the centre

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ranks_positions_as_their_l2_norms_do(self, small_spec, dtype):
        # The reference ranking: L2 norms of a float64 copy.  Integer-valued
        # weights make both sums exact, ties included.
        for seed in range(20):
            _, weights = random_conv_operands(small_spec, seed=seed, dtype=dtype)
            norms = np.linalg.norm(
                weights.reshape(-1, small_spec.positions).astype(np.float64), axis=0
            )
            for keep in range(1, small_spec.positions + 1):
                _, mask = prune_positions(weights, small_spec, keep)
                assert mask.kept == tuple(sorted(np.argsort(norms)[-keep:].tolist()))

    def test_pruned_weights_zeroed(self, small_spec):
        _, weights = random_conv_operands(small_spec, seed=2)
        pruned, mask = prune_positions(weights, small_spec, keep=3)
        for r in range(3):
            for s in range(3):
                index = r * 3 + s
                block = pruned[:, :, r, s]
                if mask.keeps(index):
                    assert np.array_equal(block, weights[:, :, r, s])
                else:
                    assert np.all(block == 0)

    def test_keep_all_is_identity(self, small_spec):
        _, weights = random_conv_operands(small_spec, seed=3)
        pruned, mask = prune_positions(weights, small_spec, keep=9)
        assert np.array_equal(pruned, weights)
        assert mask.density == 1.0

    def test_keep_bounds(self, small_spec):
        _, weights = random_conv_operands(small_spec)
        with pytest.raises(ValueError):
            prune_positions(weights, small_spec, keep=0)
        with pytest.raises(ValueError):
            prune_positions(weights, small_spec, keep=10)


class TestSparseForward:
    @pytest.mark.parametrize("keep", [1, 3, 5, 9])
    def test_equals_dense_on_masked_weights(self, small_spec, keep):
        x, weights = random_conv_operands(small_spec, seed=4)
        pruned, mask = prune_positions(weights, small_spec, keep=keep)
        sparse = conv2d_channel_first_sparse(x, weights, small_spec, mask)
        dense = direct_conv2d(x, pruned, small_spec)
        assert np.array_equal(sparse, dense)

    def test_strided_sparse(self, strided_spec):
        x, weights = random_conv_operands(strided_spec, seed=5)
        pruned, mask = prune_positions(weights, strided_spec, keep=4)
        sparse = conv2d_channel_first_sparse(x, weights, strided_spec, mask)
        assert np.array_equal(sparse, direct_conv2d(x, pruned, strided_spec))

    def test_mask_spec_must_match(self, small_spec, strided_spec):
        x, weights = random_conv_operands(small_spec)
        _, mask = prune_positions(
            random_conv_operands(strided_spec)[1], strided_spec, keep=2
        )
        with pytest.raises(ValueError):
            conv2d_channel_first_sparse(x, weights, small_spec, mask)

    def test_apply_mask_shape_check(self, small_spec):
        _, weights = random_conv_operands(small_spec)
        mask = PositionMask(spec=small_spec, kept=(0,))
        with pytest.raises(ValueError):
            apply_mask_to_weights(weights[:1], mask)
