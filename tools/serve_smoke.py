"""End-to-end smoke of ``repro serve``: boot, query, scrape, drain.

Boots the daemon as a subprocess on an ephemeral port with a tmpdir
persistent store, issues one conv-timing query plus the same query again
(which must be served without a new simulation and without a batch — a
warm hit is answered at admission, never queued), then a batch of two
identical cold queries under a 1 ms deadline (a 504 that charges each
query one ``DeadlineExceeded``, with the budget still balanced),
schema-checks ``/healthz`` and ``/statusz``, checks ``/metrics`` exposes
the serve counters (including the per-route latency histogram) and that
responses carry ``X-Repro-Run-Id``/``X-Repro-Trace-Id``, then shuts the
daemon down gracefully (SIGTERM) and requires a clean exit and the
supervisor's ``respawns=0`` drain line (every daemon runs supervised).

A malformed (non-JSON, or JSON of the wrong shape) control-endpoint
response is a hard failure — the tool exits nonzero with the offending
payload, it never tracebacks through a ``KeyError``.

Run via ``make serve-smoke``.  Exit 0 = every step held.
"""

import asyncio
import json
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.store.serve import http_request, http_request_retry  # noqa: E402

QUERY = {
    "spec": {
        "n": 8, "c_in": 128, "h_in": 28, "w_in": 28,
        "c_out": 128, "h_filter": 3, "w_filter": 3,
        "stride": 1, "padding": 1, "name": "smoke",
    }
}

#: Cold until the deadline check: no other step queries this shape.
DEADLINE_QUERY = {
    "spec": {
        "n": 1, "c_in": 64, "h_in": 14, "w_in": 14,
        "c_out": 96, "h_filter": 3, "w_filter": 3,
        "stride": 1, "padding": 1, "name": "smoke-deadline",
    }
}


def wait_for_port(proc: subprocess.Popen, timeout_s: float = 30.0) -> int:
    """Parse the listen port from the daemon's startup line."""
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"serve exited early (rc={proc.poll()})")
        sys.stdout.write(line)
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise SystemExit("serve never reported a listen address")


def check_json_doc(endpoint: str, body, required: dict) -> dict:
    """Schema gate for a control endpoint: JSON object + typed keys.

    ``http_request`` returns the raw text when the server mislabels (or
    corrupts) a JSON body, so a ``str`` here means malformed JSON — fail
    with the payload, not a ``KeyError`` traceback downstream.
    """
    if isinstance(body, str):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as err:
            raise SystemExit(
                f"{endpoint}: malformed JSON ({err}): {body[:200]!r}"
            )
    if not isinstance(body, dict):
        raise SystemExit(f"{endpoint}: expected a JSON object, got {body!r}")
    for key, expected_type in required.items():
        if key not in body:
            raise SystemExit(
                f"{endpoint}: missing {key!r} (got keys {sorted(body)})"
            )
        if not isinstance(body[key], expected_type):
            raise SystemExit(
                f"{endpoint}: {key!r} should be {expected_type}, "
                f"got {body[key]!r}"
            )
    return body


async def exercise(port: int) -> None:
    status, health, headers = await http_request_retry(
        "127.0.0.1", port, "GET", "/healthz", deadline_s=15.0
    )
    assert status == 200, (status, health)
    health = check_json_doc(
        "/healthz", health, {"status": str, "pending": int, "budget": dict}
    )
    assert health["status"] == "ok", health
    assert headers.get("x-repro-run-id"), f"no X-Repro-Run-Id: {headers}"
    assert headers.get("x-repro-trace-id"), f"no X-Repro-Trace-Id: {headers}"

    status, ready = await http_request("127.0.0.1", port, "GET", "/readyz")
    assert status == 200, (status, ready)
    ready = check_json_doc("/readyz", ready, {"ready": bool, "rung": str})
    assert ready["ready"] is True and ready["rung"] == "full", ready

    status, topdoc = await http_request("127.0.0.1", port, "GET", "/statusz")
    assert status == 200, (status, topdoc)
    topdoc = check_json_doc(
        "/statusz",
        topdoc,
        {"kind": str, "role": str, "serve": dict, "cache": dict, "budget": dict},
    )
    assert topdoc["kind"] == "repro-status" and topdoc["role"] == "serve", topdoc

    status, first, _ = await http_request_retry(
        "127.0.0.1", port, "POST", "/v1/conv", QUERY, deadline_s=60.0
    )
    assert status == 200, (status, first)
    first = check_json_doc(
        "/v1/conv", first, {"cycles": (int, float), "utilization": (int, float)}
    )
    assert first["cycles"] > 0 and 0 < first["utilization"] <= 1, first

    status, again = await http_request("127.0.0.1", port, "POST", "/v1/conv", QUERY)
    assert status == 200 and again == first, "repeat query must be identical"

    status, metrics = await http_request("127.0.0.1", port, "GET", "/metrics")
    assert status == 200, status
    for needle in (
        "repro_serve_requests_total",
        "repro_serve_simulations_total",
        "repro_serve_batches_total",
        "repro_sim_cache_hit_rate",
        'repro_serve_request_seconds_bucket{le="0.005",route="/v1/conv"}',
    ):
        assert needle in metrics, f"missing {needle} in /metrics"
    sims = re.search(r"repro_serve_simulations_total (\d+)", metrics)
    assert sims and int(sims.group(1)) == 1, (
        f"repeat query must not re-simulate: {sims and sims.group(0)}"
    )
    batches = re.search(r"repro_serve_batches_total (\d+)", metrics)
    assert batches and int(batches.group(1)) == 1, (
        f"repeat query must skip the batch queue: {batches and batches.group(0)}"
    )
    print(
        f"serve-smoke: 2 queries, 1 simulation, 1 batch, "
        f"/healthz+/readyz+/statusz schema ok, /metrics ok (port {port})"
    )
    await check_deadline_ledger(port)


async def check_deadline_ledger(port: int) -> None:
    """Two identical cold queries that blow a 1 ms deadline are two
    queries charged a deadline each, and the budget still balances."""
    _, before = await http_request("127.0.0.1", port, "GET", "/healthz")
    before = check_json_doc("/healthz", before, {"budget": dict})["budget"]
    status, body = await http_request(
        "127.0.0.1", port, "POST", "/v1/conv/batch",
        {"queries": [DEADLINE_QUERY, DEADLINE_QUERY]},
        headers={"X-Repro-Deadline-Ms": "1"},
    )
    assert status == 504, (status, body)
    _, after = await http_request("127.0.0.1", port, "GET", "/healthz")
    budget = check_json_doc("/healthz", after, {"budget": dict})["budget"]
    assert budget["failed"] - before["failed"] == 2, (before, budget)
    assert budget["faults_by_class"].get("DeadlineExceeded") == 2, budget
    assert budget["tasks"] == budget["succeeded"] + budget["failed"], budget
    _, metrics = await http_request("127.0.0.1", port, "GET", "/metrics")
    timeouts = re.search(
        r"^repro_serve_deadline_timeouts_total (\S+)$", metrics, re.MULTILINE
    )
    assert timeouts and float(timeouts.group(1)) == 2, (
        f"each timed-out query is one deadline timeout: "
        f"{timeouts and timeouts.group(0)}"
    )
    print("serve-smoke: 504 batch of 2 identical queries charged 2 deadlines")


def main() -> int:
    with tempfile.TemporaryDirectory() as store_dir:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", store_dir],
            cwd=REPO,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = wait_for_port(proc)
            asyncio.run(exercise(port))
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            tail = proc.stdout.read() if proc.stdout else ""
            sys.stdout.write(tail)
            assert rc == 0, f"serve exited {rc} on graceful shutdown"
            assert "drained" in tail, "shutdown must report a drain"
            assert "serve: supervisor drained; respawns=0" in tail, (
                "the daemon must run supervised and drain with no respawn"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
