"""Crash-only serving behaviors: deadlines, breakers, the ladder, readiness.

Integration tests over real sockets (the existing ``test_serve.py``
harness) covering DESIGN.md §4l: every refusal carries ``Retry-After``
and correlatable detail, blown deadlines cooperatively cancel abandoned
work, a poison spec trips its circuit breaker into a fast 422 verdict and
half-opens after cooldown, and the degradation ladder trades fidelity for
survival one rung at a time.
"""

import asyncio
import re

import pytest

from repro.perf.cache import SIM_CACHE, clear_cache
from repro.resilience import faults as fault_injection
from repro.store import attach, detach
from repro.store.serve import (
    LADDER_RUNGS,
    RUNG_DRAIN,
    RUNG_FULL,
    RUNG_SERIAL,
    RUNG_STORE_ONLY,
    Query,
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
    http_request_retry,
    slo_decision,
)
from repro.trace import tracer as trace

SPEC = {"n": 1, "c_in": 16, "h_in": 7, "w_in": 7, "c_out": 16,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "robust-spec"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    fault_injection.deactivate()
    yield
    detach()
    clear_cache()
    fault_injection.deactivate()


async def _boot(**overrides):
    overrides.setdefault("watchdog", False)
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    service = SimulationService(config)
    server = ReproServer(service, run_id="robust-test")
    host, port = await server.start()
    return service, server, host, port


# --------------------------------------------------------------- Retry-After


def test_load_shed_carries_retry_after_and_run_id():
    async def scenario():
        service, server, host, port = await _boot(max_pending=0)
        try:
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                return_headers=True,
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert body["run_id"] == "robust-test"
            assert body["retry_after_ms"] > 0
            assert headers["x-repro-run-id"] == "robust-test"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_draining_refusal_carries_retry_after():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.draining = True
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                return_headers=True,
            )
            assert status == 503
            assert "draining" in body["error"]
            assert int(headers["retry-after"]) >= 1
            assert body["run_id"] == "robust-test"
        finally:
            service.draining = False
            await server.shutdown()

    asyncio.run(scenario())


def test_retrying_client_rides_out_a_shed():
    async def scenario():
        service, server, host, port = await _boot(max_pending=0)
        try:
            task = asyncio.ensure_future(
                http_request_retry(
                    host, port, "POST", "/v1/conv", {"spec": SPEC},
                    deadline_s=20.0,
                )
            )
            await asyncio.sleep(0.3)  # at least one 429 + Retry-After cycle
            service.config.max_pending = 64
            status, body, _ = await task
            assert status == 200 and body["cycles"] > 0
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------------------ deadlines


def test_blown_deadline_answers_504_and_cancels_the_work():
    async def scenario():
        # A batch window far beyond the deadline: pricing cannot start
        # before the client gives up.
        service, server, host, port = await _boot(batch_window_s=5.0)
        try:
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "60"},
                return_headers=True,
            )
            assert status == 504
            assert "deadline" in body["error"]
            assert int(headers["retry-after"]) >= 1
            # Cooperative cancellation: the abandoned query left the queue
            # and the in-flight table — no engine time will be spent on it.
            assert service._queue == []
            assert service._inflight == {}
            assert service._waiters == {}
            assert service.budget.faults_by_class.get("DeadlineExceeded") == 1
            assert (
                service.registry.counters["repro_serve_deadline_timeouts_total"]
                == 1
            )
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_deadline_only_cancels_when_last_waiter_leaves():
    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.4)
        try:
            patient = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await asyncio.sleep(0.05)
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            assert status == 504  # the impatient waiter timed out...
            status, body = await patient
            assert status == 200 and body["cycles"] > 0  # ...the patient one won
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_bad_deadline_header_is_a_400():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "soon"},
            )
            assert status == 400 and "X-Repro-Deadline-Ms" in body["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------------ circuit breaker


def _poison_spec(name="hostile-conv"):
    # A different *shape* from SPEC: breakers key on canonical shape
    # fingerprints (names folded away), so an innocent spec is only
    # innocent if its shape differs.
    return dict(SPEC, h_in=14, w_in=14, name=name)


def test_poison_spec_trips_breaker_and_half_opens(tmp_path):
    async def scenario():
        store = attach(tmp_path / "store")
        fault_injection.activate(
            fault_injection.FaultPlan.parse("poison=hostile,seed=3")
        )
        service, server, host, port = await _boot(
            breaker_threshold=2, breaker_cooldown_s=0.4
        )
        try:
            # Two failures trip the breaker...
            for _ in range(2):
                status, body = await http_request(
                    host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
                )
                assert status == 500 and "poison" in body["error"]
            # ...now refusal is fast and documented: 422 + verdict.
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": _poison_spec()},
                return_headers=True,
            )
            assert status == 422
            verdict = body["verdict"]
            assert verdict["state"] == "open"
            assert verdict["trip_reason"] == "AuditFault"
            assert "retry-after" in headers
            assert service.breakers.fast_fails == 1
            assert (
                service.registry.counters["repro_serve_breaker_fastfail_total"]
                == 1
            )
            # A renamed copy of the same hostile shape meets the SAME
            # breaker (canonical fingerprints).
            status, body = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": _poison_spec("hostile-renamed")},
            )
            assert status == 422
            # An innocent spec is untouched.
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            # The tripped spec was parked for forensics in the store.
            quarantine = store.root / "serve-quarantine.jsonl"
            assert quarantine.exists()
            assert "hostile" in quarantine.read_text()
            # After the cooldown the half-open probe is admitted; with the
            # poison gone it succeeds and the breaker closes for good.
            await asyncio.sleep(0.5)
            fault_injection.deactivate()
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
            )
            assert status == 200 and body["cycles"] > 0
            assert service.breakers.open_keys() == []
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_half_open_probe_failure_reopens():
    async def scenario():
        fault_injection.activate(
            fault_injection.FaultPlan.parse("poison=hostile,seed=3")
        )
        service, server, host, port = await _boot(
            breaker_threshold=1, breaker_cooldown_s=0.3
        )
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
            )
            assert status == 500
            await asyncio.sleep(0.4)
            # Still poisoned: the probe fails, the breaker re-opens.
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
            )
            assert status == 500
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
            )
            assert status == 422
            assert body["verdict"]["trips"] == 2
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_batch_failure_attributed_serially_not_collectively():
    """A poison spec co-batched with innocents must not poison them."""

    async def scenario():
        fault_injection.activate(
            fault_injection.FaultPlan.parse("poison=hostile,seed=3")
        )
        service, server, host, port = await _boot(
            batch_window_s=0.1, breaker_threshold=1
        )
        try:
            good = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            bad = asyncio.ensure_future(
                http_request(
                    host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
                )
            )
            (good_status, good_body), (bad_status, bad_body) = (
                await asyncio.gather(good, bad)
            )
            assert good_status == 200 and good_body["cycles"] > 0
            assert bad_status == 500 and "poison" in bad_body["error"]
            # Only the hostile fingerprint has breaker history.
            assert service.breakers.open_keys() != []
            innocent = Query.parse({"spec": SPEC})
            assert innocent.fingerprint not in service.breakers.open_keys()
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# -------------------------------------------------------- degradation ladder


def test_serial_rung_still_answers():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.set_rung(RUNG_SERIAL, "test")
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200 and body["cycles"] > 0
            assert service.simulations == 1
            status, doc = await http_request(host, port, "GET", "/statusz")
            assert doc["serve"]["rung"] == "serial"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def _metric(text, name):
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else None


def test_serial_rung_is_counted_and_traced_like_a_batch():
    """A serial-rung query is a batch of one: same series, same span tree."""

    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.set_rung(RUNG_SERIAL, "test")
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                return_headers=True,
            )
            assert status == 200 and body["cycles"] > 0
            _, doc = await http_request(host, port, "GET", "/statusz")
            _, metrics = await http_request(host, port, "GET", "/metrics")
        finally:
            await server.shutdown()
        return headers["x-repro-trace-id"], doc, metrics

    trace.set_tracer(trace.Tracer())
    trace.enable()
    try:
        trace_id, doc, metrics = asyncio.run(scenario())
        events = trace.drain_events()
    finally:
        trace.set_tracer(trace.Tracer())
    assert doc["serve"]["simulations"] == 1
    assert _metric(metrics, "repro_serve_simulations_total") == 1
    assert _metric(metrics, "repro_serve_batches_total") == 1
    engine = [
        e for e in events
        if e.name == "cache.probe" or e.name.startswith("tpu.conv.")
    ]
    assert {"cache.probe", "tpu.conv.batch", "tpu.conv.layer"} <= {
        e.name for e in engine
    }
    for event in engine:
        assert dict(event.args).get("trace_id") == trace_id, event


def test_store_only_rung_serves_warm_refuses_cold():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            status, warm = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            service.set_rung(RUNG_STORE_ONLY, "test")
            # Warm hit: answered from the memo, no engine involved.
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200 and body["cycles"] == warm["cycles"]
            assert service.simulations == 1  # unchanged
            # Cold spec: honest 503 with the rung named, not a hang.
            cold = dict(SPEC, c_out=32, name="cold-spec")
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": cold},
                return_headers=True,
            )
            assert status == 503
            assert body["rung"] == "store-only"
            assert "retry-after" in headers
            service.set_rung(RUNG_DRAIN, "test")
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 503 and "drain" in body["error"]
            service.set_rung(RUNG_FULL, "test")
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": cold}
            )
            assert status == 200
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_rung_changes_are_counted_and_reported():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.set_rung(RUNG_SERIAL, "test escalate")
            service.set_rung(RUNG_SERIAL, "no-op")  # same rung: not a change
            service.set_rung(RUNG_FULL, "test recover")
            assert service.registry.counters["repro_serve_rung_changes_total"] == 2
            status, text = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert "repro_serve_degraded 0" in text
            assert "repro_serve_rung_changes_total 2" in text
            assert "repro_serve_breaker_open 0" in text
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------------- SLO watchdog


def _cfg(**kw):
    kw.setdefault("slo_min_samples", 4)
    kw.setdefault("slo_p99_ms", 100.0)
    kw.setdefault("slo_error_ratio", 0.5)
    kw.setdefault("slo_recovery_s", 5.0)
    return ServeConfig(**kw)


def test_slo_decision_escalates_on_error_ratio():
    samples = [(0.0, 10.0, False)] * 3 + [(0.0, 10.0, True)]
    assert slo_decision(samples, RUNG_FULL, _cfg(), 10.0, 0.0) == "escalate"


def test_slo_decision_escalates_on_p99():
    samples = [(0.0, 500.0, True)] * 8
    assert slo_decision(samples, RUNG_SERIAL, _cfg(), 10.0, 0.0) == "escalate"


def test_slo_decision_needs_evidence():
    samples = [(0.0, 500.0, False)] * 3  # below slo_min_samples
    assert slo_decision(samples, RUNG_FULL, _cfg(), 10.0, 0.0) is None


def test_slo_decision_never_escalates_past_store_only():
    samples = [(0.0, 500.0, False)] * 8
    assert slo_decision(samples, RUNG_STORE_ONLY, _cfg(), 10.0, 0.0) is None
    assert slo_decision(samples, RUNG_DRAIN, _cfg(), 10.0, 0.0) is None


def test_slo_decision_recovers_after_clean_quiet_window():
    clean = [(0.0, 10.0, True)] * 8
    # Too soon after the last rung change: hold.
    assert slo_decision(clean, RUNG_SERIAL, _cfg(), 3.0, 0.0) is None
    # Quiet long enough and clean: step back down.
    assert slo_decision(clean, RUNG_SERIAL, _cfg(), 10.0, 0.0) == "recover"
    # An error in the window blocks recovery.
    dirty = clean + [(0.0, 10.0, False)]
    assert slo_decision(dirty, RUNG_SERIAL, _cfg(), 10.0, 0.0) is None
    # A healthy daemon at full fidelity needs no decision at all.
    assert slo_decision(clean, RUNG_FULL, _cfg(), 10.0, 0.0) is None


# ---------------------------------------------------------------- readiness


def test_readyz_tracks_rung_and_drain():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            status, body = await http_request(host, port, "GET", "/readyz")
            assert status == 200 and body["ready"] is True
            service.set_rung(RUNG_SERIAL, "test")
            status, body = await http_request(host, port, "GET", "/readyz")
            assert status == 200  # degraded but still serving simulations
            service.set_rung(RUNG_STORE_ONLY, "test")
            status, body, headers = await http_request(
                host, port, "GET", "/readyz", return_headers=True
            )
            assert status == 503 and body["ready"] is False
            assert body["rung"] == "store-only"
            assert "retry-after" in headers
            # Liveness is a different question: the process IS alive.
            status, _ = await http_request(host, port, "GET", "/healthz")
            assert status == 200
            service.set_rung(RUNG_FULL, "test")
            service.draining = True
            status, body = await http_request(host, port, "GET", "/readyz")
            assert status == 503 and body["draining"] is True
            service.draining = False
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_statusz_reports_breakers_and_rung():
    async def scenario():
        service, server, host, port = await _boot()
        try:
            service.breakers.record_failure("deadbeef", "AuditFault", "x")
            status, doc = await http_request(host, port, "GET", "/statusz")
            assert status == 200
            assert doc["serve"]["rung"] == "full"
            assert doc["serve"]["breakers"]["keys"] == 1
            assert doc["run_id"] == "robust-test"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_ladder_names_are_stable():
    # The rung indices are wire format (repro_serve_degraded gauge) and
    # runbook vocabulary — renaming them is a breaking change.
    assert LADDER_RUNGS == ("full", "serial", "store-only", "drain")
