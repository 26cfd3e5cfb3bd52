"""Serve observability: trace headers, /statusz, per-route histograms,
and the connected request span tree under tracing."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.flight import beacon as beacon_mod
from repro.perf.cache import clear_cache
from repro.store import detach
from repro.store.serve import http_request
from repro.trace import context as tc
from repro.trace import tracer as trace
from repro.trace.export import span_forest

from .conftest import boot

REPO = Path(__file__).resolve().parents[2]

SPEC = {"n": 2, "c_in": 32, "h_in": 14, "w_in": 14, "c_out": 64,
        "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
        "name": "serve-spec"}


@pytest.fixture(autouse=True)
def clean_state():
    detach()
    clear_cache()
    beacon_mod.reset_beacon()
    trace.set_tracer(trace.Tracer())
    yield
    detach()
    clear_cache()
    beacon_mod.reset_beacon()
    trace.set_tracer(trace.Tracer())


# ------------------------------------------------------------------ headers


def test_responses_carry_run_and_trace_ids():
    async def scenario():
        service, server, host, port = await boot(run_id="run-abc")
        try:
            status, _, headers = await http_request(
                host, port, "GET", "/healthz", return_headers=True
            )
            assert status == 200
            assert headers["x-repro-run-id"] == "run-abc"
            assert len(headers["x-repro-trace-id"]) == 32
        finally:
            await server.shutdown()

    asyncio.run(scenario())


def test_incoming_traceparent_is_honored_and_echoed():
    async def scenario():
        service, server, host, port = await boot()
        try:
            ctx = tc.TraceContext.new()
            status, _, headers = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"traceparent": ctx.to_traceparent()},
                return_headers=True,
            )
            assert status == 200
            assert headers["x-repro-trace-id"] == ctx.trace_id
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------------------ statusz


def test_statusz_reflects_served_load():
    async def scenario():
        service, server, host, port = await boot(run_id="run-z")
        try:
            for _ in range(2):
                status, _ = await http_request(
                    host, port, "POST", "/v1/conv", {"spec": SPEC}
                )
                assert status == 200
            status, doc = await http_request(host, port, "GET", "/statusz")
            assert status == 200
            assert doc["kind"] == "repro-status" and doc["role"] == "serve"
            assert doc["run_id"] == "run-z"
            assert doc["serve"]["requests"] == 2
            assert doc["serve"]["simulations"] == 1  # repeat was memoized
            assert doc["serve"]["in_flight"] == 0
            assert doc["serve"]["draining"] is False
            assert doc["budget"]["succeeded"] == 2
            # The repeat probe hit a warm tier; the first was a miss.
            assert doc["cache"]["miss"] >= 1
            assert doc["cache"]["exact"] + doc["cache"]["canonical"] >= 1
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# ------------------------------------------------------- per-route histogram


def test_metrics_expose_per_route_latency_histograms():
    async def scenario():
        service, server, host, port = await boot()
        try:
            await http_request(host, port, "POST", "/v1/conv", {"spec": SPEC})
            await http_request(host, port, "GET", "/healthz")
            await http_request(host, port, "GET", "/unknown-path")
            status, metrics = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert "# TYPE repro_serve_request_seconds histogram" in metrics
            assert metrics.count("TYPE repro_serve_request_seconds") == 1
            for route in ("/v1/conv", "/healthz", "other"):
                assert (
                    f'repro_serve_request_seconds_count{{route="{route}"}} 1'
                    in metrics
                ), route
            # Bucket samples keep the route label alongside `le`.
            assert 'repro_serve_request_seconds_bucket{le="+Inf",route="/v1/conv"} 1' in metrics
        finally:
            await server.shutdown()

    asyncio.run(scenario())


# -------------------------------------------------------- request span tree


def test_traced_request_forms_one_connected_tree():
    async def scenario():
        trace.enable()
        service, server, host, port = await boot()
        try:
            ctx = tc.TraceContext.new()
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC},
                headers={"traceparent": ctx.to_traceparent()},
            )
            assert status == 200
        finally:
            await server.shutdown()
            trace.disable()
        events = trace.drain_events()

        forest = span_forest(events)
        assert ctx.trace_id in forest
        tree = forest[ctx.trace_id]
        assert tree["roots"] == [ctx.span_id]
        assert tree["orphans"] == []
        names = {e.name for e in tree["spans"].values()}
        # HTTP handler -> batch group -> engine simulation, one lineage.
        assert {"serve.request", "serve.batch", "tpu.conv.batch"} <= names

    asyncio.run(scenario())


def test_untraced_requests_record_no_spans():
    async def scenario():
        service, server, host, port = await boot()
        try:
            status, _ = await http_request(
                host, port, "POST", "/v1/conv", {"spec": SPEC}
            )
            assert status == 200
        finally:
            await server.shutdown()
        assert trace.drain_events() == []

    asyncio.run(scenario())


def _serve_with_manifest(tmp_path, *extra):
    """Boot `repro serve --manifest` in tmp_path, SIGTERM it, return its run id."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-watchdog", "--manifest", *extra],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[0-9.]+:(\d+) .* run=([^)]+)\)", line)
        assert match, f"no listening line, got: {line!r}"
        # An answered request means the SIGTERM handler is installed.
        status, _ = asyncio.run(
            http_request("127.0.0.1", int(match.group(1)), "GET", "/healthz")
        )
        assert status == 200
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    return match.group(2)


def test_serve_manifest_uses_the_pinned_run_id(tmp_path):
    assert _serve_with_manifest(tmp_path, "--run-id", "pinned") == "pinned"
    manifest = json.loads((tmp_path / "results" / "pinned" / "manifest.json").read_text())
    assert manifest["run_id"] == "pinned"


def test_serve_manifest_dir_is_the_announced_run_id(tmp_path):
    run_id = _serve_with_manifest(tmp_path)
    (run_dir,) = (tmp_path / "results").iterdir()
    assert run_dir.name == run_id
    assert json.loads((run_dir / "manifest.json").read_text())["run_id"] == run_id
