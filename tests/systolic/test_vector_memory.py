"""Vector memories: port accounting, serializer, contention freedom."""

import numpy as np
import pytest

from repro.systolic import (
    FunctionalVectorMemory,
    PortAccounting,
    TPU_V2,
    VectorMemoryModel,
)


class TestPortAccounting:
    def test_word8_idle_ratio(self):
        """Tbl. II word of 8 -> port busy 2/8 of cycles, idle 75% (Fig 16b)."""
        model = VectorMemoryModel(TPU_V2)
        assert model.idle_ratio() == pytest.approx(0.75)

    @pytest.mark.parametrize("word,expected_busy", [(2, 1.0), (4, 0.5), (8, 0.25), (16, 0.125)])
    def test_busy_fraction_scales(self, word, expected_busy):
        model = VectorMemoryModel(TPU_V2.with_word_elems(word))
        accounting = model.steady_state_accounting(800.0)
        assert accounting.busy_fraction == pytest.approx(expected_busy)

    def test_contention_free_needs_word_ge_2(self):
        """The single port keeps up (at most one access per cycle) iff the
        word holds at least two elements."""
        for word, free in ((8, True), (2, True), (1, False)):
            model = VectorMemoryModel(TPU_V2.with_word_elems(word))
            accounting = model.steady_state_accounting(1.0)
            assert (accounting.read_accesses + accounting.write_accesses <= 1) == free

    def test_reads_and_writes_interleave(self):
        """Sec. IV-A: one read + one write per word_elems cycles each."""
        model = VectorMemoryModel(TPU_V2)
        accounting = model.steady_state_accounting(80.0)
        assert accounting.read_accesses == pytest.approx(10.0)
        assert accounting.write_accesses == pytest.approx(10.0)

    def test_zero_cycles(self):
        accounting = PortAccounting(cycles=0, read_accesses=0, write_accesses=0)
        assert accounting.busy_fraction == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VectorMemoryModel(TPU_V2).steady_state_accounting(-1)

    def test_capacity_per_memory(self):
        assert TPU_V2.per_memory_bytes == 32 * 1024 * 1024 // 128


class TestFunctionalMemory:
    def test_serializer_drains_one_per_cycle(self):
        mem = FunctionalVectorMemory(word_elems=4, num_words=8)
        mem.write_word(0, np.array([1.0, 2.0, 3.0, 4.0]))
        mem.load_into_serializer(0)
        assert [mem.pop_element() for _ in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_port_access_counting(self):
        """The key hardware property: one port touch per word, not per
        element."""
        mem = FunctionalVectorMemory(word_elems=8, num_words=4)
        mem.write_word(0, np.arange(8.0))
        mem.load_into_serializer(0)
        for _ in range(8):
            mem.pop_element()
        assert mem.port_accesses == 2  # one write + one read

    def test_empty_serializer_raises(self):
        mem = FunctionalVectorMemory(word_elems=2, num_words=2)
        with pytest.raises(RuntimeError):
            mem.pop_element()

    def test_word_bounds(self):
        mem = FunctionalVectorMemory(word_elems=2, num_words=2)
        with pytest.raises(IndexError):
            mem.load_into_serializer(2)
        with pytest.raises(IndexError):
            mem.write_word(-1, np.zeros(2))

    def test_word_shape_checked(self):
        mem = FunctionalVectorMemory(word_elems=2, num_words=2)
        with pytest.raises(ValueError):
            mem.write_word(0, np.zeros(3))

    def test_occupancy_tracks(self):
        mem = FunctionalVectorMemory(word_elems=3, num_words=1)
        mem.write_word(0, np.ones(3))
        mem.load_into_serializer(0)
        assert mem.serializer_occupancy == 3
        mem.pop_element()
        assert mem.serializer_occupancy == 2
