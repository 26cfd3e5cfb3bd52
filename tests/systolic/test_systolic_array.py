"""Cycle-accurate weight-stationary array and closed-form cycle counts."""

import numpy as np
import pytest

from repro.systolic import CycleAccurateArray, TPU_V2, gemm_tile_cycles


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestNumerics:
    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (5, 4, 4), (7, 3, 2), (9, 8, 6), (4, 2, 7)])
    def test_matches_matmul(self, rng, m, k, n):
        a = rng.integers(-3, 4, (m, k)).astype(float)
        b = rng.integers(-3, 4, (k, n)).astype(float)
        array = CycleAccurateArray(max(k, 2), max(n, 2))
        array.load_weights(b)
        out, _ = array.run(a)
        assert np.array_equal(out, a @ b)

    def test_partial_occupancy(self, rng):
        """A tile smaller than the array computes correctly in the corner."""
        a = rng.integers(-2, 3, (6, 3)).astype(float)
        b = rng.integers(-2, 3, (3, 2)).astype(float)
        array = CycleAccurateArray(8, 8)
        array.load_weights(b)
        out, _ = array.run(a)
        assert np.array_equal(out, a @ b)

    def test_sequential_tiles_reuse_array(self, rng):
        array = CycleAccurateArray(4, 4)
        for _ in range(3):
            a = rng.integers(-2, 3, (5, 4)).astype(float)
            b = rng.integers(-2, 3, (4, 4)).astype(float)
            array.load_weights(b)
            out, _ = array.run(a)
            assert np.array_equal(out, a @ b)


class TestCycleCounts:
    @pytest.mark.parametrize("m,k,n", [(5, 4, 4), (7, 3, 2), (1, 1, 1), (9, 8, 6)])
    def test_exact_pipeline_cycles(self, rng, m, k, n):
        """run() reports exactly m + k + n - 1 cycles (skew fill + drain)."""
        array = CycleAccurateArray(8, 8)
        load = array.load_weights(rng.standard_normal((k, n)))
        _, cycles = array.run(rng.standard_normal((m, k)))
        assert load == k
        assert cycles == m + k + n - 1

    def test_closed_form_matches_cycle_accurate(self, rng):
        """The licence for the event-driven layer model: the closed form
        equals the register-level simulation for single tiles."""
        for m, k, n in [(5, 4, 4), (12, 7, 3), (3, 8, 8)]:
            array = CycleAccurateArray(8, 8)
            load = array.load_weights(rng.standard_normal((k, n)))
            _, stream = array.run(rng.standard_normal((m, k)))
            tile = gemm_tile_cycles(m, k, n, TPU_V2)
            assert tile.weight_load == load
            assert tile.stream + tile.pipeline == stream


class TestValidation:
    def test_run_before_load(self):
        with pytest.raises(RuntimeError):
            CycleAccurateArray(4, 4).run(np.ones((2, 4)))

    def test_oversized_tile(self):
        with pytest.raises(ValueError):
            CycleAccurateArray(2, 2).load_weights(np.ones((3, 2)))

    def test_mismatched_k(self):
        array = CycleAccurateArray(4, 4)
        array.load_weights(np.ones((3, 2)))
        with pytest.raises(ValueError):
            array.run(np.ones((2, 4)))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            CycleAccurateArray(0, 4)
        with pytest.raises(ValueError):
            gemm_tile_cycles(0, 1, 1, TPU_V2)
        with pytest.raises(ValueError):
            gemm_tile_cycles(1, 300, 1, TPU_V2)  # exceeds array
