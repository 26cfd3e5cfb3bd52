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
import time

import pytest

from repro.perf.cache import SIM_CACHE, clear_cache
from repro.resilience import faults as fault_injection
from repro.store import attach, detach
from repro.store.serve import (
    LADDER_RUNGS,
    RUNG_DRAIN,
    RUNG_FULL,
    RUNG_STORE_ONLY,
    Query,
    ServeConfig,
    SimulationService,
    http_request,
    http_request_retry,
    slo_decision,
)
from repro.trace import tracer as trace

from .conftest import boot, hold_pricing, occupy_pricer, until

SPEC = {"n": 1, "c_in": 16, "h_in": 7, "w_in": 7, "c_out": 16,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "robust-spec"}
#: A cold miss of another shape, to hold the pricer with.
BLOCKER = dict(SPEC, c_out=8, name="blocker")


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    fault_injection.deactivate()
    yield
    detach()
    clear_cache()
    fault_injection.deactivate()


# --------------------------------------------------------------- Retry-After


def test_load_shed_carries_retry_after_and_run_id():
    async def scenario():
        service, server, host, port = await boot(max_pending=0)
        try:
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                return_headers=True,
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert body["run_id"] == "serve-test"
            assert body["retry_after_ms"] > 0
            assert headers["x-repro-run-id"] == "serve-test"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_draining_refusal_carries_retry_after():
    async def scenario():
        service, server, host, port = await boot()
        try:
            service.draining = True
            status, body, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                return_headers=True,
            )
            assert status == 503
            assert "draining" in body["error"]
            assert int(headers["retry-after"]) >= 1
            assert body["run_id"] == "serve-test"
        finally:
            service.draining = False
            await server.shutdown()

    asyncio.run(scenario())


def test_retrying_client_rides_out_a_shed():
    async def scenario():
        service, server, host, port = await boot(max_pending=0)
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


def test_blown_deadline_answers_504_and_cancels_the_work(monkeypatch):
    release = hold_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await boot()
        try:
            # Another miss holds the pricer: this query's pricing cannot
            # start before its client gives up.
            blocker = await occupy_pricer(service, host, port, BLOCKER)
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
            assert Query.parse({"spec": SPEC}).key not in service._inflight
            assert service.budget.faults_by_class.get("DeadlineExceeded") == 1
            assert (
                service.registry.counters["repro_serve_deadline_timeouts_total"]
                == 1
            )
            release.set()
            await blocker
        finally:
            await server.shutdown()
        assert service.simulations == 1  # the blocker's alone

    asyncio.run(scenario())


def test_deadline_only_cancels_when_last_waiter_leaves(monkeypatch):
    release = hold_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await boot()
        try:
            patient = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await until(lambda: service.pending == 1)
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            assert status == 504  # the impatient waiter timed out...
            release.set()
            status, body = await patient
            assert status == 200 and body["cycles"] > 0  # ...the patient one won
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_bad_deadline_header_is_a_400():
    async def scenario():
        service, server, host, port = await boot()
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
        service, server, host, port = await boot(
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
        service, server, host, port = await boot(
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


def test_batch_failure_attributed_serially_not_collectively(monkeypatch):
    """A poison spec co-batched with innocents must not poison them."""
    groups = []
    price_group = SimulationService._price_group

    async def spy(self, flights):
        groups.append(sorted(f.query.spec.name for f in flights))
        await price_group(self, flights)

    monkeypatch.setattr(SimulationService, "_price_group", spy)
    release = hold_pricing(monkeypatch)

    async def scenario():
        fault_injection.activate(
            fault_injection.FaultPlan.parse("poison=hostile,seed=3")
        )
        service, server, host, port = await boot(breaker_threshold=1)
        try:
            # A third miss holds the pricer, so the two queue behind it
            # and are taken as one batch.
            blocker = await occupy_pricer(service, host, port, BLOCKER)
            good = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            bad = asyncio.ensure_future(
                http_request(
                    host, port, "POST", "/v1/conv", {"spec": _poison_spec()}
                )
            )
            await until(lambda: len(service._queue) == 2)
            release.set()
            (good_status, good_body), (bad_status, bad_body) = (
                await asyncio.gather(good, bad)
            )
            await blocker
            # One group priced poison and innocent together; its failure
            # was replayed one flight at a time.
            assert groups == [
                ["blocker"],
                ["hostile-conv", "robust-spec"],
                ["robust-spec"],
                ["hostile-conv"],
            ]
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


def _metric(text, name):
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else None


def test_priced_query_is_counted_and_traced_under_its_request():
    """A priced miss is one batch in the series, and every engine span it
    caused carries its request's trace id."""

    async def scenario():
        service, server, host, port = await boot()
        try:
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
        service, server, host, port = await boot()
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
        service, server, host, port = await boot()
        try:
            service.set_rung(RUNG_STORE_ONLY, "test escalate")
            service.set_rung(RUNG_STORE_ONLY, "no-op")  # same rung: not a change
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
    assert slo_decision(samples, RUNG_FULL, _cfg(), 10.0, 0.0) == "escalate"


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
    assert slo_decision(clean, RUNG_STORE_ONLY, _cfg(), 3.0, 0.0) is None
    # Quiet long enough and clean: step back down.
    assert slo_decision(clean, RUNG_STORE_ONLY, _cfg(), 10.0, 0.0) == "recover"
    # An error in the window blocks recovery.
    dirty = clean + [(0.0, 10.0, False)]
    assert slo_decision(dirty, RUNG_STORE_ONLY, _cfg(), 10.0, 0.0) is None
    # A healthy daemon at full fidelity needs no decision at all.
    assert slo_decision(clean, RUNG_FULL, _cfg(), 10.0, 0.0) is None


def test_watchdog_escalates_to_store_only_and_recovers_under_cold_traffic():
    """A poison burst takes the daemon from ``full`` to ``store-only`` in
    one rung change.  There a cold spec's 503 is the rung answering as
    designed, so traffic with one cold spec in ten lets it recover."""

    async def scenario():
        fault_injection.activate(
            fault_injection.FaultPlan.parse("poison=hostile,seed=3")
        )
        service, server, host, port = await boot(
            watchdog=True, slo_interval_s=0.05, slo_recovery_s=0.3,
            breaker_threshold=1000,  # each poison request is priced, and fails
        )

        async def post(spec):
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": spec}
            )
            return status

        try:
            assert await post(SPEC) == 200  # warm from here on
            burst = []
            while service.rung == RUNG_FULL and len(burst) < 200:
                burst.append(await post(_poison_spec()))
            escalated = (service.rung_name, service.registry.counters)
            fault_injection.deactivate()
            statuses = []
            for i in range(60):
                if service.rung == RUNG_FULL:
                    break
                cold = dict(SPEC, c_out=8 * (i + 3), name=f"cold-{i}")
                statuses.append(await post(cold if i % 10 == 0 else SPEC))
                await asyncio.sleep(0.01)
            recovered = (service.rung_name, service.registry.counters)
        finally:
            await server.shutdown()
        return burst, escalated, statuses, recovered

    burst, escalated, statuses, recovered = asyncio.run(scenario())
    changes = "repro_serve_rung_changes_total"
    assert set(burst[:-1]) == {500}  # the last may meet the new rung
    assert (escalated[0], escalated[1][changes]) == ("store-only", 1)
    assert statuses[0] == 503  # the first cold spec met the store-only rung
    assert (recovered[0], recovered[1][changes]) == ("full", 2)


def test_a_request_begun_before_a_rung_change_is_not_its_evidence():
    # A poison request in flight when the watchdog escalates ends after
    # the window was cleared: counted, its failure would hold the new
    # rung for a whole window of later requests.
    service = SimulationService(ServeConfig(watchdog=False))
    service.set_rung(RUNG_STORE_ONLY, "test")
    time.sleep(0.01)
    service.record_sample(60_000.0, ok=False)  # began a minute ago
    service.record_sample(1.0, ok=True)  # began after the change
    assert [ok for _, _, ok in service._samples] == [True]


# ---------------------------------------------------------------- readiness


def test_readyz_tracks_rung_and_drain():
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, body = await http_request(host, port, "GET", "/readyz")
            assert status == 200 and body["ready"] is True
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
        service, server, host, port = await boot()
        try:
            service.breakers.record_failure("deadbeef", "AuditFault", "x")
            status, doc = await http_request(host, port, "GET", "/statusz")
            assert status == 200
            assert doc["serve"]["rung"] == "full"
            assert doc["serve"]["breakers"]["keys"] == 1
            assert doc["run_id"] == "serve-test"
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_ladder_names_are_stable():
    # The rung indices are wire format (repro_serve_degraded gauge) and
    # runbook vocabulary — renaming them is a breaking change.
    assert LADDER_RUNGS == ("full", "store-only", "drain")
