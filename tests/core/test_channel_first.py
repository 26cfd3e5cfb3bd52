"""The implicit channel-first algorithm: views, order freedom, plans."""

import numpy as np
import pytest

from repro.core import (
    conv2d_channel_first,
    decompose,
    decomposed_tile_view,
    decomposed_weight_slice,
    direct_conv2d,
    random_conv_operands,
)
from repro.core.channel_first import DecomposedFilter
from repro.core.reference import pad_ifmap


def test_matches_direct_conv(operands):
    spec, ifmap, weights = operands
    assert np.array_equal(
        conv2d_channel_first(ifmap, weights, spec), direct_conv2d(ifmap, weights, spec)
    )


def test_decompose_count_and_tags(small_spec):
    tiles = decompose(small_spec)
    assert len(tiles) == 9
    assert (tiles[0].r, tiles[0].s) == (0, 0)  # the paper's tile <1,1>
    assert (tiles[-1].r, tiles[-1].s) == (2, 2)  # the paper's tile <3,3>
    assert [t.index for t in tiles] == list(range(9))


def test_tile_view_is_a_view_not_a_copy(operands):
    """Zero memory overhead: the decomposed tile shares storage with the
    padded IFMap."""
    spec, ifmap, _ = operands
    padded = pad_ifmap(ifmap, spec.padding)
    for tile in decompose(spec):
        view = decomposed_tile_view(padded, spec, tile)
        assert view.base is padded or view.base is padded.base
        assert view.shape == (spec.n, spec.c_in, spec.h_out, spec.w_out)


def test_tile_view_contents(strided_spec):
    """Each view element must be the tap the geometry says it is."""
    spec = strided_spec
    ifmap, _ = random_conv_operands(spec, seed=5)
    padded = pad_ifmap(ifmap, spec.padding)
    tile = decompose(spec)[4]  # centre position (1,1)
    view = decomposed_tile_view(padded, spec, tile)
    for oy in range(spec.h_out):
        for ox in range(spec.w_out):
            y = oy * spec.stride + tile.r * spec.dilation
            x = ox * spec.stride + tile.s * spec.dilation
            assert np.array_equal(view[:, :, oy, ox], padded[:, :, y, x])


def test_weight_slice_shape_and_values(operands):
    spec, _, weights = operands
    tile = decompose(spec)[0]
    b = decomposed_weight_slice(weights, spec, tile)
    assert b.shape == (spec.c_in, spec.c_out)
    assert np.array_equal(b, weights[:, :, tile.r, tile.s].T)


def test_arbitrary_visit_order(operands):
    """Commutativity of accumulation: any visit order gives the same OFMap."""
    spec, ifmap, weights = operands
    tiles = decompose(spec)
    reference = conv2d_channel_first(ifmap, weights, spec)
    reordered = list(reversed(tiles))
    assert np.array_equal(
        conv2d_channel_first(ifmap, weights, spec, order=reordered), reference
    )


def test_order_must_cover_all_tiles(small_spec):
    ifmap, weights = random_conv_operands(small_spec)
    tiles = decompose(small_spec)
    with pytest.raises(ValueError):
        conv2d_channel_first(ifmap, weights, small_spec, order=tiles[:-1])
    with pytest.raises(ValueError):
        conv2d_channel_first(ifmap, weights, small_spec, order=tiles + [tiles[0]])


def test_order_rejects_inconsistent_tile(small_spec):
    ifmap, weights = random_conv_operands(small_spec)
    tiles = decompose(small_spec)
    bogus = [DecomposedFilter(r=0, s=0, index=5)] + tiles[1:]
    with pytest.raises(ValueError):
        conv2d_channel_first(ifmap, weights, small_spec, order=bogus)


def test_plan_geometry(small_spec):
    """Each decomposed tile is an ``[M, C_I] x [C_I, C_O]`` GEMM, and the
    tiles together do exactly the convolution's work."""
    spec = small_spec
    ifmap, weights = random_conv_operands(spec)
    padded = pad_ifmap(ifmap, spec.padding)
    macs = 0
    for tile in decompose(spec):
        n, c, h, w = decomposed_tile_view(padded, spec, tile).shape
        assert (n * h * w, c) == (spec.lowered_rows(), spec.c_in)
        k, n_out = decomposed_weight_slice(weights, spec, tile).shape
        assert (k, n_out) == (spec.c_in, spec.c_out)
        macs += n * h * w * c * n_out
    assert macs == spec.macs


def test_plan_tile_footprint_shrinks_with_stride(small_spec):
    """The stride-insensitivity mechanism: per-tile input shrinks with the
    OFMap, quadratically in stride."""
    def tile_input_elements(spec):
        padded = pad_ifmap(random_conv_operands(spec)[0], spec.padding)
        return decomposed_tile_view(padded, spec, decompose(spec)[0]).size

    base = tile_input_elements(small_spec)
    spec2 = small_spec.with_stride(2)
    strided = tile_input_elements(spec2)
    ratio = base / strided
    assert ratio == pytest.approx(
        (small_spec.h_out * small_spec.w_out) / (spec2.h_out * spec2.w_out)
    )
    assert ratio > 3  # ~4x for stride 2


def test_shape_validation(small_spec):
    ifmap, weights = random_conv_operands(small_spec)
    with pytest.raises(ValueError):
        conv2d_channel_first(ifmap[:1], weights, small_spec)
    with pytest.raises(ValueError):
        decomposed_tile_view(ifmap, small_spec, decompose(small_spec)[0])  # not padded
