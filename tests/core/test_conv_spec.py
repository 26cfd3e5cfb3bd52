"""Geometry and accounting of ConvSpec/GemmShape."""

import dataclasses
import math
import pickle

import pytest

from repro.core import ConvSpec, GemmShape, output_extent
from repro.perf.cache import fingerprint, spec_key
from repro.store.codec import decode_value, encode_value


class TestOutputExtent:
    def test_basic(self):
        assert output_extent(5, 3, 1, 0) == 3

    def test_stride(self):
        assert output_extent(5, 3, 2, 0) == 2

    def test_padding(self):
        assert output_extent(5, 3, 1, 1) == 5  # SAME

    def test_dilation(self):
        # effective filter = 2*(3-1)+1 = 5
        assert output_extent(9, 3, 1, 0, dilation=2) == 5

    def test_resnet_conv1(self):
        assert output_extent(224, 7, 2, 3) == 112

    def test_filter_too_large(self):
        with pytest.raises(ValueError):
            output_extent(3, 5, 1, 0)

    @pytest.mark.parametrize("bad", [(0, 3, 1, 0), (5, 0, 1, 0), (5, 3, 0, 0), (5, 3, 1, -1)])
    def test_invalid_args(self, bad):
        with pytest.raises(ValueError):
            output_extent(*bad)


class TestGemmShape:
    def test_flops_is_twice_macs(self):
        shape = GemmShape(3, 4, 5)
        assert shape.macs == 60
        assert shape.flops == 120

    def test_bytes_moved(self):
        shape = GemmShape(2, 3, 4)
        # A: 2x4, B: 4x3, C: 2x3 at 2 bytes
        assert shape.bytes_moved(2) == 2 * (8 + 12 + 6)

    def test_arithmetic_intensity_positive(self):
        assert GemmShape(128, 128, 128).arithmetic_intensity() > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)


class TestConvSpec:
    def test_output_shape(self, small_spec):
        assert small_spec.ofmap_shape == (2, 5, 6, 6)

    def test_strided_output_shape(self, strided_spec):
        # (9 + 2 - 3)//2 + 1 = 5
        assert strided_spec.h_out == 5
        assert strided_spec.ofmap_shape == (2, 4, 5, 5)

    def test_macs_formula(self, small_spec):
        s = small_spec
        expected = s.n * s.c_out * s.h_out * s.w_out * s.c_in * 9
        assert s.macs == expected

    def test_lowered_dims(self, small_spec):
        assert small_spec.lowered_rows() == 2 * 36
        assert small_spec.lowered_cols() == 9 * 4

    def test_gemm_shape_consistent_with_macs(self, any_spec):
        assert any_spec.gemm_shape().macs == any_spec.macs

    def test_decomposed_gemm_covers_total(self, any_spec):
        d = any_spec.decomposed_gemm_shape()
        assert d.macs * any_spec.positions == any_spec.macs

    def test_lowering_expansion_at_least_near_one(self, small_spec):
        # stride 1, 3x3 with padding: close to 9x
        assert 6 < small_spec.lowering_expansion() <= 9

    def test_pointwise_expansion_is_one(self, pointwise_spec):
        assert pointwise_spec.lowering_expansion() == pytest.approx(1.0)

    def test_with_stride_and_batch(self, small_spec):
        assert small_spec.with_stride(2).stride == 2
        assert small_spec.with_batch(16).n == 16
        # original unchanged (frozen dataclass)
        assert small_spec.stride == 1 and small_spec.n == 2

    def test_filter_positions_row_major(self, small_spec):
        positions = list(small_spec.filter_positions())
        assert positions[0] == (0, 0)
        assert positions[1] == (0, 1)
        assert positions[-1] == (2, 2)
        assert len(positions) == 9

    def test_tap_coordinate_with_padding(self, small_spec):
        # output (0,0), tap (0,0) reaches into the padding halo
        assert small_spec.tap_coordinate(0, 0, 0, 0) == (-1, -1)
        assert small_spec.tap_coordinate(0, 0, 1, 1) == (0, 0)

    def test_tap_coordinate_dilation(self, dilated_spec):
        y, x = dilated_spec.tap_coordinate(0, 0, 2, 2)
        assert (y, x) == (-2 + 4, -2 + 4)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ConvSpec(n=0, c_in=1, h_in=4, w_in=4, c_out=1, h_filter=3, w_filter=3)

    def test_rejects_filter_larger_than_input(self):
        with pytest.raises(ValueError):
            ConvSpec(n=1, c_in=1, h_in=2, w_in=2, c_out=1, h_filter=3, w_filter=3)

    def test_describe_mentions_geometry(self, strided_spec):
        text = strided_spec.describe()
        assert "s2" in text and "f3x3" in text

    def test_bytes_accounting(self, small_spec):
        assert small_spec.ifmap_bytes(2) == 2 * small_spec.ifmap_elements()
        assert small_spec.lowered_bytes(2) == 2 * small_spec.lowered_elements()

    def test_is_pointwise(self, pointwise_spec, small_spec):
        assert pointwise_spec.is_pointwise()
        assert not small_spec.is_pointwise()


class TestOutputExtentAttributes:
    """``h_out``/``w_out`` are attributes set at construction, not fields."""

    SPEC = ConvSpec(n=2, c_in=3, h_in=11, w_in=8, c_out=4, h_filter=3,
                    w_filter=2, stride=2, padding=1, dilation=2, name="extents")
    FIELDS = (2, 3, 11, 8, 4, 3, 2, 2, 1, 2)

    @staticmethod
    def _extents(spec):
        return (spec.h_out, spec.w_out)

    def test_extents_are_the_output_extent_of_each_axis(self):
        s = self.SPEC
        assert self._extents(s) == (
            output_extent(s.h_in, s.h_filter, s.stride, s.padding, s.dilation),
            output_extent(s.w_in, s.w_filter, s.stride, s.padding, s.dilation),
        ) == (5, 4)

    def test_extents_are_not_dataclass_fields(self):
        names = {f.name for f in dataclasses.fields(ConvSpec)}
        assert not names & {"h_out", "w_out"}
        assert "h_out" not in repr(self.SPEC)

    def test_keys_see_only_the_fields(self):
        assert spec_key(self.SPEC) == ("ConvSpec",) + self.FIELDS
        assert fingerprint(self.SPEC) == ("ConvSpec",) + self.FIELDS + ("extents",)
        assert set(encode_value(self.SPEC)["fields"]) == {
            f.name for f in dataclasses.fields(ConvSpec)
        }

    def test_extents_survive_replace(self):
        wider = dataclasses.replace(self.SPEC, w_in=16)
        assert self._extents(wider) == (5, 8)
        assert self._extents(dataclasses.replace(self.SPEC)) == (5, 4)

    def test_extents_survive_pickle_and_the_store_codec(self):
        for copy in (pickle.loads(pickle.dumps(self.SPEC)),
                     decode_value(encode_value(self.SPEC))):
            assert copy == self.SPEC and hash(copy) == hash(self.SPEC)
            assert self._extents(copy) == (5, 4)
            assert spec_key(copy) == spec_key(self.SPEC)
