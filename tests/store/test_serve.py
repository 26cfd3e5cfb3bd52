"""Integration tests of ``repro serve``: real sockets, real asyncio loop.

Each test boots a :class:`ReproServer` on an ephemeral port inside its
own event loop and talks to it with the stdlib client from
:mod:`repro.store.serve` — no web framework on either side.
"""

import asyncio

import pytest

from repro.perf.cache import clear_cache
from repro.store import attach, detach
from repro.store.serve import http_request

from .conftest import boot, hold_pricing, joins, until

SPEC = {"n": 2, "c_in": 32, "h_in": 14, "w_in": 14, "c_out": 64,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "serve-spec"}

RESULT_FIELDS = {"name", "cycles", "seconds", "tflops", "utilization",
                 "compute_cycles", "dma_cycles", "exposed_dma_cycles",
                 "macs", "group_size", "layout"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    yield
    detach()
    clear_cache()


def test_single_query_round_trip():
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
            assert set(body) == RESULT_FIELDS
            assert body["name"].startswith("serve-spec")  # spec.describe()
            assert body["cycles"] > 0 and body["seconds"] > 0
            assert body["layout"] == "NHWC"
            assert service.simulations == 1

            status, health = await http_request(host, port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["budget"]["succeeded"] == 1

            status, _ = await http_request(host, port, "GET", "/nope")
            assert status == 404
            status, err = await http_request(
                host, port, "POST", "/v1/conv", {"spec": {"bogus": 1}}
            )
            assert status == 400 and "bogus" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_duplicate_queries_collapse_to_one_simulation(monkeypatch):
    release = hold_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await boot()
        try:
            requests = asyncio.gather(*[
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
                for _ in range(8)
            ])
            # The first miss holds the pricer; the other 7 join its flight.
            await until(lambda: joins(service) == 7)
            release.set()
            answers = await requests
            assert all(status == 200 for status, _ in answers)
            bodies = [body for _, body in answers]
            assert all(body == bodies[0] for body in bodies)
            # 8 clients, one fresh engine simulation.
            assert service.simulations == 1
            assert service.registry.counters["repro_serve_requests_total"] == 8
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_batch_endpoint_preserves_order():
    async def scenario():
        service, server, host, port = await boot()
        try:
            queries = [
                {"spec": dict(SPEC, c_in=c, name=f"layer-{c}")}
                for c in (16, 32, 64)
            ]
            status, body = await http_request(
                host, port, "POST", "/v1/conv/batch", {"queries": queries}
            )
            assert status == 200
            names = [r["name"].split("[")[0] for r in body["results"]]
            assert names == ["layer-16", "layer-32", "layer-64"]

            status, err = await http_request(
                host, port, "POST", "/v1/conv/batch", {"nope": []}
            )
            assert status == 400 and "queries" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_config_override_changes_the_answer():
    async def scenario():
        service, server, host, port = await boot()
        try:
            _, base = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            _, narrow = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": SPEC, "config": {"array_rows": 32}},
            )
            assert narrow["cycles"] != base["cycles"]
            status, err = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": SPEC, "config": {"warp_size": 32}},
            )
            assert status == 400 and "warp_size" in err["error"]
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_load_shedding_returns_429_and_counts_fault(monkeypatch):
    release = hold_pricing(monkeypatch)

    async def scenario():
        # A one-query budget and a held pricer: the first query stays
        # pending while the second is refused.
        service, server, host, port = await boot(max_pending=1)
        try:
            first = asyncio.create_task(
                http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            )
            await until(lambda: service.pending == 1)  # admitted, pending
            status, err = await http_request(
                host, port, "POST", "/v1/conv",
                {"spec": dict(SPEC, c_in=16, name="shed-me")},
            )
            assert status == 429 and "budget" in err["error"]
            assert service.budget.faults_by_class.get("LoadShed") == 1
            assert service.registry.counters["repro_serve_shed_total"] == 1
            release.set()
            status, body = await first  # the admitted query still answers
            assert status == 200 and body["cycles"] > 0
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_graceful_drain_answers_inflight_then_refuses(monkeypatch):
    release = hold_pricing(monkeypatch)

    async def scenario():
        service, server, host, port = await boot()
        inflight = asyncio.create_task(
            http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
        )
        await until(lambda: service.pending == 1)  # admitted, pricing held
        shutdown = asyncio.create_task(server.shutdown())
        await until(lambda: service.draining)
        release.set()
        status, body = await inflight
        assert status == 200 and body["cycles"] > 0  # drained, not dropped
        await shutdown
        assert service.pending == 0 and service.draining

    asyncio.run(scenario())


def test_draining_server_refuses_with_503():
    async def scenario():
        service, server, host, port = await boot()
        try:
            service.draining = True
            status, err = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 503 and "draining" in err["error"]
        finally:
            service.draining = False
            await server.shutdown()

    asyncio.run(scenario())


def test_metrics_exposition_includes_serve_and_store_series(tmp_path):
    async def scenario():
        attach(tmp_path / "store")
        service, server, host, port = await boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            status, text = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            for series in ("repro_serve_requests_total",
                           "repro_serve_batches_total",
                           "repro_serve_simulations_total",
                           "repro_serve_pending",
                           "repro_store_hit_rate"):
                assert series in text, series
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_serve_warm_starts_from_persistent_store(tmp_path):
    async def cold():
        attach(tmp_path / "store")
        service, server, host, port = await boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            assert service.simulations == 1
        finally:
            await server.shutdown()

    async def warm():
        store = attach(tmp_path / "store")
        service, server, host, port = await boot()
        try:
            status, body = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200 and body["cycles"] > 0
            assert service.simulations == 0  # served from the store
            assert store.stats.hits >= 1
        finally:
            await server.shutdown()

    asyncio.run(cold())
    detach()
    clear_cache()  # a "new process": only the store survives
    asyncio.run(warm())
