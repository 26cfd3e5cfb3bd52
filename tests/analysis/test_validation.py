"""Validation-run machinery."""

import pytest

from repro.analysis import ValidationRun


@pytest.fixture
def run():
    r = ValidationRun("test")
    r.add("a", 105, 100)
    r.add("b", 95, 100)
    r.add("c", 120, 100)
    return r


def test_point_error(run):
    assert run.points[0].error_pct == pytest.approx(5.0)


def test_mape(run):
    assert run.mape() == pytest.approx((5 + 5 + 20) / 3)


def test_stats(run):
    stats = run.stats()
    assert stats.count == 3
    assert stats.max_pct == pytest.approx(20.0)
