"""Unit tests of the per-fingerprint circuit breakers (fake clock)."""

import pytest

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerOpen,
    BreakerPolicy,
    BreakerRegistry,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


POLICY = BreakerPolicy(threshold=3, cooldown_s=10.0, window_s=60.0)


def make(policy: BreakerPolicy = POLICY):
    clock = FakeClock()
    return CircuitBreaker("fp-1", policy, clock), clock


def test_stays_closed_below_threshold():
    breaker, _ = make()
    assert breaker.record_failure("AuditFault", "boom") is False
    assert breaker.record_failure("AuditFault", "boom") is False
    assert breaker.state == CLOSED
    breaker.admit()  # closed breaker admits freely


def test_trips_at_threshold_and_refuses_with_verdict():
    breaker, clock = make()
    for i in range(2):
        assert breaker.record_failure("AuditFault", f"boom {i}") is False
    assert breaker.record_failure("WorkerCrash", "boom 2") is True
    assert breaker.state == OPEN
    with pytest.raises(BreakerOpen) as err:
        breaker.admit()
    verdict = err.value.verdict
    assert verdict["fingerprint"] == "fp-1"
    assert verdict["state"] == OPEN
    assert verdict["trips"] == 1
    assert verdict["trip_reason"] == "WorkerCrash"
    assert len(verdict["failures"]) == 3
    assert verdict["retry_after_s"] == pytest.approx(10.0)
    clock.advance(4.0)
    with pytest.raises(BreakerOpen) as err:
        breaker.admit()
    assert err.value.verdict["retry_after_s"] == pytest.approx(6.0)


def test_half_open_probe_success_closes_with_amnesty():
    breaker, clock = make()
    for i in range(3):
        breaker.record_failure("AuditFault", f"boom {i}")
    clock.advance(10.0)
    breaker.admit()  # the cooldown elapsed: one probe gets through
    assert breaker.state == HALF_OPEN
    with pytest.raises(BreakerOpen):  # ...but only one
        breaker.admit()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.failures == []  # full amnesty
    breaker.admit()


def test_half_open_probe_failure_reopens_fresh_cooldown():
    breaker, clock = make()
    for i in range(3):
        breaker.record_failure("AuditFault", f"boom {i}")
    clock.advance(10.0)
    breaker.admit()
    assert breaker.record_failure("AuditFault", "still bad") is True
    assert breaker.state == OPEN
    assert breaker.trips == 2
    assert breaker.cooldown_remaining() == pytest.approx(10.0)


def test_window_prunes_stale_failures():
    breaker, clock = make()
    breaker.record_failure("AuditFault", "old")
    breaker.record_failure("AuditFault", "old")
    clock.advance(61.0)  # both fall out of the 60s window
    assert breaker.record_failure("AuditFault", "new") is False
    assert breaker.state == CLOSED
    assert len(breaker.failures) == 1


def test_registry_allocates_nothing_for_clean_keys():
    clock = FakeClock()
    registry = BreakerRegistry(POLICY, clock=clock)
    for key in ("a", "b", "c"):
        registry.admit(key)
        registry.record_success(key)
    assert registry.snapshot() == {
        "keys": 0, "open": [], "trips": 0, "fast_fails": 0
    }


def test_registry_counts_trips_and_fast_fails():
    clock = FakeClock()
    registry = BreakerRegistry(POLICY, clock=clock)
    for i in range(3):
        registry.record_failure("bad", "AuditFault", f"boom {i}")
    assert registry.trips == 1
    assert registry.open_keys() == ["bad"]
    for _ in range(4):
        with pytest.raises(BreakerOpen):
            registry.admit("bad")
    assert registry.fast_fails == 4
    registry.admit("good")  # other keys unaffected
    clock.advance(10.0)
    registry.admit("bad")  # half-open probe
    registry.record_success("bad")
    assert registry.open_keys() == []


def test_registry_evicts_stalest_closed_breaker_first():
    clock = FakeClock()
    registry = BreakerRegistry(POLICY, clock=clock, max_keys=2)
    registry.record_failure("stale-closed", "AuditFault", "x")
    clock.advance(1.0)
    for i in range(3):
        registry.record_failure("open-key", "AuditFault", f"x{i}")
    clock.advance(1.0)
    registry.record_failure("fresh", "AuditFault", "x")  # forces eviction
    assert "stale-closed" not in registry._breakers
    assert "open-key" in registry._breakers  # open verdicts are kept


def test_probe_slot_frees_only_its_own_half_open_period():
    clock = FakeClock()
    registry = BreakerRegistry(
        BreakerPolicy(threshold=1, cooldown_s=10.0), clock=clock
    )
    registry.record_failure("k", "AuditFault", "boom")  # trips
    clock.advance(10.0)
    slot = registry.admit("k")  # the half-open probe
    assert slot is not None
    with pytest.raises(BreakerOpen):
        registry.admit("k")
    registry.release_probe("k", slot)  # e.g. withdrawn before pricing
    assert registry.admit("k") == slot  # the next request is the probe
    assert registry.record_failure("k", "AuditFault", "again")  # reopens
    clock.advance(10.0)
    assert registry.admit("k") not in (None, slot)  # a new period's probe
    registry.release_probe("k", slot)  # stale: frees nothing
    with pytest.raises(BreakerOpen):
        registry.admit("k")
    registry.record_success("k")
    assert registry.admit("k") is None  # closed
