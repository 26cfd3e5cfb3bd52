"""Skewed address generation: the crossbar-free property."""

import pytest

from repro.core import ConvSpec
from repro.systolic import skewed_schedule, tile_word_offsets


@pytest.fixture
def spec():
    return ConvSpec(n=8, c_in=4, h_in=6, w_in=6, c_out=4,
                    h_filter=3, w_filter=3, stride=1, padding=0)


class TestWordOffsets:
    def test_batch_packed_one_word_per_tap(self, spec):
        offsets = tile_word_offsets(spec, word_elems=8, batch_in_word=True)
        assert offsets == list(range(spec.h_out * spec.w_out))

    def test_unpacked_advances_per_word(self, spec):
        offsets = tile_word_offsets(spec, word_elems=4, batch_in_word=False)
        assert offsets[:5] == [0, 0, 0, 0, 1]

    def test_offsets_independent_of_stride_shape(self):
        """The array-facing stream only depends on the output size — all the
        stride complexity lives in the DMA fill (Sec. III-B)."""
        base = ConvSpec(n=1, c_in=2, h_in=9, w_in=9, c_out=2,
                        h_filter=3, w_filter=3, stride=1, padding=1)
        strided = base.with_stride(2)
        assert tile_word_offsets(strided, 8) == list(range(strided.h_out * strided.w_out))

    def test_invalid_word(self, spec):
        with pytest.raises(ValueError):
            tile_word_offsets(spec, 0)


class TestSkewedSchedule:
    def test_identical_streams_modulo_delay(self, spec):
        """The crossbar-free property: every memory's access sequence is the
        same, just delayed by its row index."""
        offsets = tile_word_offsets(spec, 8)
        schedule = skewed_schedule(offsets, rows=4, word_elems=8)
        by_row = {}
        for access in schedule:
            by_row.setdefault(access.row, []).append((access.cycle, access.word_offset))
        base = [(c - 0, o) for c, o in by_row[0]]
        for row in range(1, 4):
            shifted = [(c - row, o) for c, o in by_row[row]]
            assert shifted == base

    def test_one_access_per_memory_per_cycle(self, spec):
        offsets = tile_word_offsets(spec, 8)
        schedule = skewed_schedule(offsets, rows=4, word_elems=8)
        seen = set()
        for access in schedule:
            key = (access.cycle, access.row)
            assert key not in seen
            seen.add(key)

    def test_serializer_cadence(self, spec):
        offsets = tile_word_offsets(spec, 8)
        schedule = skewed_schedule(offsets, rows=2, word_elems=8)
        row0 = sorted(a.cycle for a in schedule if a.row == 0)
        gaps = {b - a for a, b in zip(row0, row0[1:])}
        assert gaps == {8}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            skewed_schedule([0], rows=0, word_elems=8)
