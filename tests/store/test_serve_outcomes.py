"""One outcome per serve query.

Every query ``SimulationService.submit`` sees is one task on the service's
error budget, and it ends in exactly one of ``succeeded`` or ``failed``,
with the fault class its client saw, counted once when the query's own
future is done.  A distinct miss is one flight: the futures waiting on it
and the half-open breaker slot its first query took, priced and settled
as an object.  These tests drive real sockets and pin that ledger: a
joiner shares its flight's failure, a timed-out waiter is charged while
another still waits, a withdrawn probe gives its slot back, a query
arriving while an abandoned miss is pricing joins that pricing, a refused
batch prices none of its queries, and a drain waits for the last flight
without polling.
"""

import asyncio
import time

import pytest

from repro.core.layouts import Layout
from repro.obs.flight import beacon as beacon_mod
from repro.perf.cache import clear_cache
from repro.resilience import faults as fault_injection
from repro.resilience.breaker import CLOSED, BreakerPolicy, BreakerRegistry
from repro.store import detach
from repro.store.serve import (
    RUNG_FULL,
    RUNG_STORE_ONLY,
    Query,
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
)
from repro.systolic.simulator import TPUSim

SPEC = {"n": 1, "c_in": 16, "h_in": 7, "w_in": 7, "c_out": 16,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "outcome-spec"}


def _cold(c_out):
    """A spec no other query in the test prices (shapes differ by c_out)."""
    return dict(SPEC, c_out=c_out, name=f"cold-{c_out}")


#: The ``repro_serve_*`` series that counts each refusal or timeout.
SERIES = {
    "BreakerOpen": "repro_serve_breaker_fastfail_total",
    "StoreOnlyMiss": "repro_serve_store_only_miss_total",
    "LoadShed": "repro_serve_shed_total",
    "DeadlineExceeded": "repro_serve_deadline_timeouts_total",
}

#: Named so the ``poison=hostile`` plan fails it at pricing time.
POISON = dict(SPEC, h_in=14, w_in=14, name="hostile-conv")


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    fault_injection.deactivate()
    beacon_mod.reset_beacon()
    yield
    detach()
    clear_cache()
    fault_injection.deactivate()
    beacon_mod.reset_beacon()


async def _boot(**overrides):
    overrides.setdefault("watchdog", False)
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    service = SimulationService(config)
    server = ReproServer(service, run_id="outcome-test")
    host, port = await server.start()
    return service, server, host, port


async def _until_pending(service, count, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while service.pending < count and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    assert service.pending == count


def _slow_pricing(monkeypatch, seconds=0.3):
    original = TPUSim.simulate_conv_batch

    def slow(self, specs, group_size=None, layout=Layout.NHWC):
        time.sleep(seconds)
        return original(self, specs, group_size, layout)

    monkeypatch.setattr(TPUSim, "simulate_conv_batch", slow)


def _budget(service):
    budget = service.budget
    return budget.tasks, budget.succeeded, budget.failed


def test_a_joiner_shares_its_flights_failure():
    fault_injection.activate(
        fault_injection.FaultPlan.parse("poison=hostile,seed=3")
    )

    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.1)
        try:
            answers = await asyncio.gather(*[
                http_request(host, port, "POST", "/v1/conv", {"spec": POISON})
                for _ in range(2)
            ])
        finally:
            await server.shutdown()
        return service, answers

    service, answers = asyncio.run(scenario())
    assert [status for status, _ in answers] == [500, 500]
    assert service.registry.counters["repro_serve_deduped_total"] == 1
    assert _budget(service) == (2, 0, 2)
    assert service.budget.faults_by_class == {"AuditFault": 2}


def test_a_timed_out_waiter_is_charged_while_another_still_waits(monkeypatch):
    _slow_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await _boot()
        try:
            patient = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await _until_pending(service, 1)
            impatient, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            status, body = await patient
        finally:
            await server.shutdown()
        return service, impatient, status, body

    service, impatient, status, body = asyncio.run(scenario())
    assert impatient == 504
    assert status == 200 and body["cycles"] > 0
    assert _budget(service) == (2, 1, 1)
    assert service.budget.faults_by_class == {"DeadlineExceeded": 1}
    counters = service.registry.counters
    assert counters["repro_serve_deadline_timeouts_total"] == 1


def test_a_withdrawn_probe_gives_its_slot_back():
    cold = _cold(40)
    now = [0.0]

    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.5)
        try:
            service.breakers = BreakerRegistry(
                BreakerPolicy(threshold=1, cooldown_s=1.0),
                clock=lambda: now[0],
            )
            fingerprint = Query.parse({"spec": cold}).fingerprint
            service.breakers.record_failure(fingerprint, "AuditFault", "test")
            now[0] = 2.0  # cooled down: the next request is the probe
            probe, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": cold},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            assert service._queue == [] and service._inflight == {}
            now[0] = 1000.0
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": cold}
            )
            state = service.breakers._breakers[fingerprint].state
        finally:
            await server.shutdown()
        return probe, status, body, state

    probe, status, body, state = asyncio.run(scenario())
    assert probe == 504
    assert status == 200 and body["cycles"] > 0
    assert state == CLOSED


def test_a_query_joins_the_pricing_of_an_abandoned_miss(monkeypatch):
    _slow_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await _boot()
        try:
            abandoned, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            # The abandoned miss is still pricing: this identical query
            # must join it, not queue a second copy.
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            await asyncio.sleep(0.5)  # any second pricing would end here
        finally:
            await server.shutdown()
        return service, abandoned, status, body

    service, abandoned, status, body = asyncio.run(scenario())
    assert abandoned == 504
    assert status == 200 and body["cycles"] > 0
    counters = service.registry.counters
    assert counters.get("repro_serve_deduped_total") == 1
    assert counters.get("repro_serve_batches_total") == 1
    fingerprint = Query.parse({"spec": SPEC}).fingerprint
    assert fingerprint not in service.breakers._breakers  # no failure
    assert _budget(service) == (2, 1, 1)


def test_a_refused_batch_prices_and_books_none_of_its_queries():
    async def scenario():
        service, server, host, port = await _boot(max_pending=1)
        try:
            # The first cold query is admitted; the second is shed, and
            # the whole request with it.
            status, body = await http_request(
                host, port, "POST", "/v1/conv/batch",
                {"queries": [{"spec": _cold(64)}, {"spec": _cold(72)}]},
            )
        finally:
            await server.shutdown()  # the drain prices anything left queued
        return service, status, body

    service, status, body = asyncio.run(scenario())
    assert status == 429 and "retry_after_ms" in body
    assert _budget(service) == (2, 0, 2)
    assert service.budget.faults_by_class == {"LoadShed": 2}
    assert service.simulations == 0
    assert service._queue == [] and service._inflight == {}


def test_every_outcome_is_counted_once_and_the_counts_agree():
    fault_injection.activate(
        fault_injection.FaultPlan.parse("poison=hostile,seed=3")
    )

    async def scenario():
        service, server, host, port = await _boot(
            batch_window_s=0.3, max_pending=1, breaker_threshold=1
        )

        async def post(spec, headers=None):
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": spec}, headers=headers
            )
            return status

        statuses = []
        try:
            statuses.append(await post(SPEC))  # a miss
            statuses.append(await post(SPEC))  # a warm hit
            statuses += await asyncio.gather(  # a joined miss
                post(_cold(24)), post(_cold(24))
            )
            statuses += await asyncio.gather(  # a poisoned joined pair
                post(POISON), post(POISON)
            )
            statuses.append(await post(POISON))  # a breaker fast-fail
            patient = asyncio.ensure_future(post(_cold(32)))
            await _until_pending(service, 1)
            statuses.append(await post(_cold(48)))  # a shed
            statuses.append(  # times out while its co-waiter is answered
                await post(_cold(32), {"X-Repro-Deadline-Ms": "50"})
            )
            statuses.append(await patient)
            service.set_rung(RUNG_STORE_ONLY, "test")
            statuses.append(await post(_cold(56)))  # a store-only miss
            service.set_rung(RUNG_FULL, "test")
            service.draining = True
            statuses.append(await post(SPEC))  # a drain refusal
            service.draining = False
        finally:
            await server.shutdown()
        return service, statuses

    service, statuses = asyncio.run(scenario())
    assert statuses == [200, 200, 200, 200, 500, 500, 422, 429, 504, 200,
                        503, 503]
    budget = service.budget
    assert budget.tasks == len(statuses)
    assert budget.tasks == budget.succeeded + budget.failed
    assert budget.succeeded == statuses.count(200)
    assert budget.faults_by_class == {
        "AuditFault": 2, "BreakerOpen": 1, "LoadShed": 1,
        "DeadlineExceeded": 1, "StoreOnlyMiss": 1, "Draining": 1,
    }
    counters = service.registry.counters
    for fault, series in SERIES.items():
        assert counters.get(series, 0) == budget.faults_by_class[fault], fault
    assert beacon_mod.get_beacon().shed == budget.faults_by_class["LoadShed"]
    assert counters["repro_serve_requests_total"] == budget.tasks


def test_a_drain_waits_for_its_last_flight_without_spinning(monkeypatch):
    _slow_pricing(monkeypatch, seconds=0.5)

    async def scenario():
        service, server, host, port = await _boot(batch_window_s=0.0)
        try:
            request = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await _until_pending(service, 1)
            started = time.process_time()
            await service.drain()
            cpu_s = time.process_time() - started
            pending = service.pending
            status, body = await request
        finally:
            await server.shutdown()
        return cpu_s, pending, status, body

    cpu_s, pending, status, body = asyncio.run(scenario())
    assert pending == 0
    assert status == 200 and body["cycles"] > 0
    assert cpu_s < 0.1  # the flight sleeps 0.5 s: a poll would burn it
