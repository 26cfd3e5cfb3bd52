"""Metrics and error statistics."""

import pytest

from repro.analysis import (
    error_stats,
    geometric_mean,
    mean_absolute_percentage_error,
    relative_error,
)


class TestErrors:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(0.1)

    def test_mape(self):
        assert mean_absolute_percentage_error([110, 95], [100, 100]) == pytest.approx(7.5)

    def test_mape_validation(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1], [1, 2])

    def test_error_stats(self):
        stats = error_stats([101, 110, 80], [100, 100, 100])
        assert stats.count == 3
        assert stats.mean_pct == pytest.approx((1 + 10 + 20) / 3)
        assert stats.max_pct == pytest.approx(20)
        assert stats.median_pct == pytest.approx(10)

    def test_p90_on_larger_set(self):
        sims = [100 + i for i in range(10)]
        stats = error_stats(sims, [100] * 10)
        assert stats.p90_pct == pytest.approx(8.0)


class TestGeomean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])
