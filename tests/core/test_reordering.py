"""Inter-tile working-set overlap and the greedy reuse order."""

import pytest

from repro.core import (
    ConvSpec,
    decompose,
    greedy_reuse_order,
    order_reuse_fraction,
    overlap_fraction,
    tile_working_set,
)
from repro.errors import ConfigError


def brute_overlap(spec, a, b):
    wa = tile_working_set(spec, a)
    wb = tile_working_set(spec, b)
    return len(wa & wb) / len(wa)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_closed_form_matches_brute_force(stride):
    spec = ConvSpec(n=1, c_in=2, h_in=13, w_in=13, c_out=2,
                    h_filter=3, w_filter=3, stride=stride, padding=1)
    tiles = decompose(spec)
    for a in tiles:
        for b in tiles:
            if a.index == b.index:
                continue
            assert overlap_fraction(spec, a, b) == pytest.approx(brute_overlap(spec, a, b))


def test_dilated_overlap_matches_brute_force(dilated_spec):
    tiles = decompose(dilated_spec)
    for a, b in [(tiles[0], tiles[1]), (tiles[0], tiles[4]), (tiles[2], tiles[6])]:
        assert overlap_fraction(dilated_spec, a, b) == pytest.approx(
            brute_overlap(dilated_spec, a, b)
        )


def test_stride1_neighbours_overlap_heavily(small_spec):
    tiles = decompose(small_spec)
    frac = overlap_fraction(small_spec, tiles[0], tiles[1])
    assert frac == pytest.approx((small_spec.w_out - 1) / small_spec.w_out)


def test_stride2_odd_shift_zero_overlap():
    """At stride 2, tiles shifted by an odd offset share no taps — the
    disconnect the paper's reordering works around."""
    spec = ConvSpec(n=1, c_in=2, h_in=9, w_in=9, c_out=2,
                    h_filter=3, w_filter=3, stride=2, padding=1)
    tiles = decompose(spec)
    assert overlap_fraction(spec, tiles[0], tiles[1]) == 0.0
    assert overlap_fraction(spec, tiles[0], tiles[2]) > 0.5


def test_paper_96_percent_claim():
    """Sec. V: at a 99x99 IFMap (stride 2, 3x3), tiles <1,1> and <1,3>
    overlap ~96%."""
    spec = ConvSpec(n=1, c_in=1, h_in=99, w_in=99, c_out=1,
                    h_filter=3, w_filter=3, stride=2, padding=0)
    tiles = decompose(spec)
    frac = overlap_fraction(spec, tiles[0], tiles[2])  # <1,1> vs <1,3>
    assert 0.94 <= frac <= 0.99


def test_pairwise_table_symmetry(small_spec):
    tiles = decompose(small_spec)
    for a in tiles:
        for b in tiles:
            assert overlap_fraction(small_spec, a, b) == pytest.approx(
                overlap_fraction(small_spec, b, a)
            )


def test_greedy_order_is_valid_permutation(strided_spec):
    order = greedy_reuse_order(strided_spec)
    assert sorted(t.index for t in order) == list(range(strided_spec.positions))
    assert order[0].index == 0


def test_greedy_beats_naive_at_stride2():
    spec = ConvSpec(n=1, c_in=2, h_in=17, w_in=17, c_out=2,
                    h_filter=3, w_filter=3, stride=2, padding=1)
    naive = order_reuse_fraction(spec, decompose(spec))
    greedy = order_reuse_fraction(spec, greedy_reuse_order(spec))
    assert greedy > naive


def test_greedy_matches_naive_at_stride1(small_spec):
    """At stride 1 the naive raster order is already near-optimal."""
    naive = order_reuse_fraction(small_spec, decompose(small_spec))
    greedy = order_reuse_fraction(small_spec, greedy_reuse_order(small_spec))
    assert greedy >= naive - 1e-9


def test_reuse_fraction_bounds(any_spec):
    value = order_reuse_fraction(any_spec, greedy_reuse_order(any_spec))
    assert 0.0 <= value < 1.0


def test_pointwise_single_tile(pointwise_spec):
    order = greedy_reuse_order(pointwise_spec)
    assert len(order) == 1
    assert order_reuse_fraction(pointwise_spec, order) == 0.0


def test_reuse_fraction_empty_order_rejected(small_spec):
    with pytest.raises(ValueError):
        order_reuse_fraction(small_spec, [])


def test_working_set_size(small_spec):
    tiles = decompose(small_spec)
    ws = tile_working_set(small_spec, tiles[0])
    assert len(ws) == small_spec.h_out * small_spec.w_out


def _reference_greedy(spec):
    """The greedy walk as first written: one ``overlap_fraction`` call per
    candidate per step, candidates in ascending index order."""
    by_index = {t.index: t for t in decompose(spec)}
    remaining = set(by_index) - {0}
    order, current = [by_index[0]], 0
    while remaining:
        current = max(
            sorted(remaining),
            key=lambda i: overlap_fraction(spec, by_index[current], by_index[i]),
        )
        order.append(by_index[current])
        remaining.discard(current)
    return order


def _geometry_grid():
    """Stride 1-4, dilation 1-2, padding 0-3, square and rectangular
    filters up to 11x11 (strides above the filter included) on a
    rectangular IFMap; combinations whose filter does not fit are skipped."""
    filters = ((1, 1), (1, 3), (3, 1), (2, 5), (3, 3), (5, 5), (7, 3), (4, 9), (11, 11))
    for h_filter, w_filter in filters:
        for stride in (1, 2, 3, 4):
            for dilation in (1, 2):
                for padding in (0, 1, 2, 3):
                    try:
                        yield ConvSpec(n=1, c_in=1, h_in=23, w_in=19, c_out=1,
                                       h_filter=h_filter, w_filter=w_filter,
                                       stride=stride, padding=padding,
                                       dilation=dilation)
                    except ConfigError:
                        continue


def test_greedy_order_matches_the_overlap_fraction_walk():
    specs = list(_geometry_grid())
    assert len(specs) > 250
    assert any(s.stride > max(s.h_filter, s.w_filter) for s in specs)
    for spec in specs:
        assert greedy_reuse_order(spec) == _reference_greedy(spec), spec.describe()
