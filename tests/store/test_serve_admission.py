"""Warm queries are answered at admission, through the pricing chokepoint.

``SimulationService.submit`` answers a memo or store hit itself, at every
rung of the ladder, through ``TPUSim.lookup_conv``: the hit is counted,
audited and traced like any priced layer, and only misses queue for the
pricer.  These tests pin that one story across the memo counters,
the ``repro_serve_*`` series, ``/statusz`` and the beacon; that audits and
traces see every served answer; that a half-open breaker's probe always
reports back; and that a deadline is charged only to the query that
missed it.
"""

import asyncio
import dataclasses
import re
import time

import pytest

from repro.audit import auditor
from repro.core.layouts import Layout
from repro.obs.flight import beacon as beacon_mod
from repro.perf.cache import SIM_CACHE, clear_cache
from repro.resilience.breaker import CLOSED, BreakerPolicy, BreakerRegistry
from repro.store import attach, detach
from repro.store.serve import RUNG_FULL, RUNG_STORE_ONLY, Query, http_request
from repro.systolic.simulator import TPUSim
from repro.trace import context as tc
from repro.trace import tracer as trace

from .conftest import boot, hold_pricing, joins, until

SPEC = {"n": 1, "c_in": 16, "h_in": 7, "w_in": 7, "c_out": 16,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "admission-spec"}
#: Never priced in these tests unless a test prices it.
COLD = dict(SPEC, c_out=32, name="cold-spec")
RUNGS = {"full": RUNG_FULL, "store-only": RUNG_STORE_ONLY}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    beacon_mod.reset_beacon()
    yield
    auditor.configure("off")
    detach()
    clear_cache()
    beacon_mod.reset_beacon()


def _metric(text, name):
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else None


async def _metrics(host, port):
    _, text = await http_request(host, port, "GET", "/metrics")
    return text


def _half_open(service, spec):
    """Trip ``spec``'s breaker on a fake clock and let it cool down, so
    the next request for it is admitted as the half-open probe."""
    now = [0.0]
    service.breakers = BreakerRegistry(
        BreakerPolicy(threshold=1, cooldown_s=1.0), clock=lambda: now[0]
    )
    fingerprint = Query.parse({"spec": spec}).fingerprint
    service.breakers.record_failure(fingerprint, "AuditFault", "test")
    now[0] = 2.0
    return service.breakers, fingerprint


def test_warm_repeat_skips_the_batch_and_every_count_agrees():
    async def scenario():
        service, server, host, port = await boot()
        try:
            for _ in range(2):
                status, _ = await http_request(
                    host, port, "POST", "/v1/conv", {"spec": SPEC}
                )
                assert status == 200
            _, doc = await http_request(host, port, "GET", "/statusz")
            _, metrics = await http_request(host, port, "GET", "/metrics")
        finally:
            await server.shutdown()
        return doc, metrics

    doc, metrics = asyncio.run(scenario())
    # Only the miss was batched; the repeat was answered at admission.
    assert _metric(metrics, "repro_serve_batches_total") == 1
    stats = SIM_CACHE.stats
    assert (stats.exact_hits, stats.misses) == (1, 1)
    assert doc["serve"]["simulations"] == 1
    assert _metric(metrics, "repro_serve_simulations_total") == 1
    assert doc["cache"] == {
        "exact": stats.exact_hits,
        "canonical": stats.canonical_hits,
        "persistent": stats.persistent_hits,
        "miss": stats.misses,
    }
    assert doc["budget"]["tasks"] == doc["budget"]["succeeded"] == 2


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_warm_hit_is_audited(rung):
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            service.set_rung(RUNGS[rung], "test")
            auditor.configure("cheap")
            auditor.reset()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
        finally:
            await server.shutdown()

    asyncio.run(scenario())
    counts = auditor.get_auditor().checks_by_invariant
    assert counts.get("tpu.macs.conservation", 0) == 1
    assert auditor.get_auditor().violations == 0


def test_store_only_hit_is_traced_under_its_request():
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            service.set_rung(RUNG_STORE_ONLY, "test")
            trace.drain_events()  # keep only the warm request's events
            ctx = tc.TraceContext.new()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"traceparent": ctx.to_traceparent()},
            )
            assert status == 200
        finally:
            await server.shutdown()
        return ctx.trace_id

    trace.set_tracer(trace.Tracer())
    trace.enable()
    try:
        trace_id = asyncio.run(scenario())
        events = trace.drain_events()
    finally:
        trace.set_tracer(trace.Tracer())
    served = [
        e for e in events if e.name in ("cache.probe", "tpu.conv.layer")
    ]
    assert {e.name for e in served} == {"cache.probe", "tpu.conv.layer"}
    for event in served:
        assert dict(event.args).get("trace_id") == trace_id, event
    assert not any(e.name == "serve.batch" for e in events)


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_half_open_breaker_closes_on_a_warm_probe(rung):
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            breakers, fingerprint = _half_open(service, SPEC)
            service.set_rung(RUNGS[rung], "test")
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            assert breakers._breakers[fingerprint].state == CLOSED
            assert breakers.open_keys() == []
        finally:
            await server.shutdown()

    asyncio.run(scenario())


@pytest.mark.parametrize("refusal", ["shed", "store-only-miss"])
def test_refused_probe_gives_its_slot_back(refusal):
    async def scenario():
        service, server, host, port = await boot(
            max_pending=0 if refusal == "shed" else 256
        )
        try:
            breakers, fingerprint = _half_open(service, COLD)
            if refusal == "store-only-miss":
                service.set_rung(RUNG_STORE_ONLY, "test")
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": COLD}
            )
            assert status == (429 if refusal == "shed" else 503)
            assert breakers._breakers[fingerprint].probes_inflight == 0
            service.config.max_pending = 256
            service.set_rung(RUNG_FULL, "test")
            # The next request is admitted as the probe, not refused.
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": COLD}
            )
            assert status == 200 and body["cycles"] > 0
            assert breakers.open_keys() == []
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_full_backlog_sheds_a_miss_but_answers_a_warm_hit(monkeypatch):
    """``--max-pending`` bounds the backlog of misses: while it is full a
    new miss is shed, a warm hit is answered at admission and a query that
    joins the miss in flight is admitted."""
    other = dict(COLD, c_out=48, name="other-cold-spec")

    async def scenario():
        service, server, host, port = await boot(max_pending=1)
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            release = hold_pricing(monkeypatch)
            cold = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": COLD})
            )
            await until(lambda: service.pending == 1)
            shed, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": other}
            )
            warm, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            joined = asyncio.ensure_future(
                http_request(host, port, "POST", "/v1/conv", {"spec": COLD})
            )
            await until(lambda: joins(service) == 1)
            release.set()
            first, joined = await cold, await joined
        finally:
            await server.shutdown()
        return service, shed, warm, first, joined

    service, shed, warm, first, joined = asyncio.run(scenario())
    assert (shed, warm) == (429, 200)
    assert first[0] == joined[0] == 200
    assert first[1]["cycles"] == joined[1]["cycles"]
    assert service.budget.faults_by_class.get("LoadShed") == 1


def test_serve_counts_a_store_miss_once(tmp_path):
    """A miss is looked up at admission and probed again when priced; the
    store counts it once, so ``repro_store_hit_rate`` stays exact."""
    store = attach(tmp_path / "store")

    async def scenario():
        service, server, host, port = await boot()
        try:
            for _ in range(2):
                status, _ = await http_request(
                    host, port, "POST", "/v1/conv", {"spec": SPEC}
                )
                assert status == 200
            clear_cache()  # the next answer comes from the store
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            metrics = await _metrics(host, port)
        finally:
            await server.shutdown()
        return metrics

    metrics = asyncio.run(scenario())
    assert (store.stats.hits, store.stats.misses) == (1, 1)
    assert _metric(metrics, "repro_store_hit_rate") == 0.5


def test_corrupt_warm_entry_fails_its_audit_at_admission():
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            query = Query.parse({"spec": SPEC})
            found, good = SIM_CACHE.lookup(query.key)
            assert found
            # The cheap invariants accept it; the full differential does not.
            SIM_CACHE.store(
                query.key,
                dataclasses.replace(good, dma_cycles=good.dma_cycles + 1.0),
            )
            auditor.configure("full")
            failed = service.budget.failed
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 500 and "AuditFault" in body["error"]
            assert service.budget.failed == failed + 1
            assert service.budget.faults_by_class.get("AuditFault") == 1
            breaker = service.breakers._breakers[query.fingerprint]
            assert [f["fault"] for f in breaker.failures] == ["AuditFault"]
            assert _metric(
                await _metrics(host, port), "repro_serve_batches_total"
            ) == 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_deadline_is_charged_only_to_the_late_query(monkeypatch):
    """A batch request with one warm query and one slow miss: the 504 is
    the miss's, and only the miss is charged a deadline."""
    original = TPUSim.simulate_conv_batch

    def slow_nchw(self, specs, group_size=None, layout=Layout.NHWC):
        if layout is Layout.NCHW:
            time.sleep(0.2)
        return original(self, specs, group_size, layout)

    monkeypatch.setattr(TPUSim, "simulate_conv_batch", slow_nchw)

    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            before = service.budget.to_dict()
            status, body = await http_request(
                host, port, "POST", "/v1/conv/batch",
                {"queries": [{"spec": SPEC},
                             {"spec": SPEC, "layout": "NCHW"}]},
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            assert status == 504 and "deadline" in body["error"]
            await asyncio.sleep(0.3)  # the slow pricing finishes unheard
            after = service.budget.to_dict()
            assert after["tasks"] - before["tasks"] == 2
            assert after["succeeded"] - before["succeeded"] == 1
            assert after["failed"] - before["failed"] == 1
            assert after["succeeded"] + after["failed"] == after["tasks"]
            assert (
                service.registry.counters["repro_serve_deadline_timeouts_total"]
                == 1
            )
            assert service.budget.faults_by_class == {"DeadlineExceeded": 1}
        finally:
            await server.shutdown()

    asyncio.run(scenario())
