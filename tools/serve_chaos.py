"""Chaos campaign for ``repro serve``: kill the workers, keep the promises.

The invariant under test (ISSUE/DESIGN.md §4l): **every admitted request
receives a response and the store stays verify-clean**, while the daemon
is being actively sabotaged on every layer at once:

- server-side seeded faults (``--inject-faults serve=conn-reset,
  worker-crash,...``): connections aborted before the request is read,
  workers calling ``os._exit(137)`` mid-campaign;
- client-side hostility played by this tool off the same plan: slowloris
  header drips, truncated bodies, garbage JSON;
- two externally ``kill -9``'d workers mid-campaign;
- a seeded poison spec (AuditFault at pricing) that must trip its
  circuit breaker into a fast 422 verdict, then half-open after cooldown.

Gates, all hard failures:

1. every good query converges to HTTP 200 through the retrying client
   (connection resets and 5xx+Retry-After are retried; *no* query is
   silently lost);
2. every hostile exchange gets a definitive outcome (4xx/408 or a
   connection close) within a bounded time — never a hang;
3. the supervisor restores the full worker count after the murders
   (supervisor status file) and the fleet still answers;
4. the poison spec's breaker trips (422 + verdict document) and
   half-opens after cooldown (a probe is re-admitted);
5. the daemon drains cleanly on SIGTERM (exit 0);
6. ``repro store verify`` over the shared store exits 0.

Run via ``make serve-chaos``.  Exit 0 = every gate held.  On any failure
the tool prints its evidence before exiting nonzero: the error that ended
the campaign, the last supervisor status (workers alive, their pids,
respawns, single-worker degradation), the daemon's captured output, and
the newest flight-recorder dumps (the daemon runs with ``--flight``).
"""

import asyncio
import json
import os
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

WORKERS = 4
# Injection rate is per *connection*; the retrying client amplifies every
# reset into more connections, so a hot rate crash-storms the fleet past
# the supervisor's respawn budget.  2% yields a handful of injected
# crashes/resets over the campaign — plus the two external kill -9s.
FAULTS = ("serve=conn-reset,slowloris,truncated-body,worker-crash,"
          "rate=0.02,seed=11,poison=chaos-poison")
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 2.0
GOOD_SPECS = 6
REPEATS_PER_SPEC = 5
HOSTILE_ROUNDS = 6
# How many of the newest flight dumps a failed campaign prints.
FLIGHT_DUMPS_SHOWN = 8


def good_query(i: int) -> dict:
    return {"spec": {
        "n": 1, "c_in": 8 + 8 * (i % 4), "h_in": 7 + 7 * (i % 2), "w_in": 7,
        "c_out": 16 + 16 * (i % 3), "h_filter": 3, "w_filter": 3,
        "stride": 1, "padding": 1, "name": f"chaos-good-{i}",
    }}


POISON_QUERY = {"spec": {
    "n": 1, "c_in": 48, "h_in": 9, "w_in": 9, "c_out": 48,
    "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
    "name": "chaos-poison-spec",
}}


def wait_for_port(
    proc: subprocess.Popen, log_path: pathlib.Path, timeout_s: float = 30.0
) -> int:
    """Poll the daemon's captured output for its listen address."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        match = re.search(r"http://[^:]+:(\d+)", log_path.read_text())
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            raise SystemExit(f"serve exited early (rc={proc.returncode})")
        time.sleep(0.05)
    raise SystemExit("serve never reported a listen address")


def read_supervisor(status_file: pathlib.Path, want, deadline_s: float = 30.0):
    """Poll the supervisor beacon file until ``want(extra)`` holds."""
    deadline = time.monotonic() + deadline_s
    last = None
    while time.monotonic() < deadline:
        try:
            doc = json.loads(status_file.read_text())
        except (OSError, json.JSONDecodeError):
            time.sleep(0.2)
            continue
        last = doc.get("extra", {})
        if want(last):
            return last
        time.sleep(0.2)
    raise SystemExit(f"supervisor status never converged; last: {last}")


async def hostile_exchange(port: int, kind: str) -> str:
    """One deliberately malformed exchange; returns its definitive outcome.

    Outcomes: ``"4xx"`` (server answered with a clean client error),
    ``"closed"`` (server or chaos hook hung up — the exchange *ended*).
    A hang past the deadline raises, which fails the campaign.
    """
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except (ConnectionError, OSError):
        return "closed"  # injected conn-reset at accept: definitive enough
    try:
        try:
            if kind == "slowloris":
                for byte in b"GET /he":
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.12)
            elif kind == "truncated-body":
                writer.write(b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 400\r\n\r\n{\"spec\":")
                await writer.drain()
                writer.write_eof()
            else:  # garbage JSON
                body = b"{\"spec\": \xde\xad\xbe\xef"
                writer.write(
                    b"POST /v1/conv HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # server hung up mid-send: that is an outcome, keep reading
        raw = await asyncio.wait_for(reader.read(), timeout=20.0)
    except asyncio.TimeoutError:
        raise SystemExit(f"hostile exchange {kind!r} HUNG (no outcome in 20s)")
    except (ConnectionError, OSError):
        return "closed"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not raw:
        return "closed"
    status = int(raw.split(b" ", 2)[1])
    if not (400 <= status < 500):
        raise SystemExit(f"hostile exchange {kind!r} got HTTP {status}, "
                         f"expected a 4xx: {raw[:200]!r}")
    return "4xx"


async def drive_breaker_trip(port: int) -> None:
    """Feed the poison spec until its breaker answers a fast 422 verdict."""
    deadline = time.monotonic() + 60.0
    failures = 0
    while time.monotonic() < deadline:
        try:
            status, body, headers = await http_request(
                "127.0.0.1", port, "POST", "/v1/conv", POISON_QUERY,
                return_headers=True,
            )
        except (ConnectionError, OSError):
            await asyncio.sleep(0.1)  # chaos ate the connection; again
            continue
        if status == 500:
            failures += 1
            continue
        if status == 422:
            verdict = body.get("verdict", {})
            assert verdict.get("state") in ("open", "half-open"), body
            assert verdict.get("trip_reason") == "AuditFault", body
            assert "retry-after" in headers, headers
            print(f"serve-chaos: breaker tripped after {failures} failures; "
                  f"verdict fingerprint={verdict.get('fingerprint')}")
            return
        if status in (429, 503, 504):
            await asyncio.sleep(0.2)
            continue
        raise SystemExit(f"poison spec got unexpected HTTP {status}: {body}")
    raise SystemExit("breaker never tripped on the poison spec")


async def prove_half_open(port: int) -> None:
    """After cooldown a probe must be re-admitted (500), then re-open (422)."""
    await asyncio.sleep(BREAKER_COOLDOWN_S + 0.5)
    deadline = time.monotonic() + 30.0
    saw_probe = False
    while time.monotonic() < deadline:
        try:
            status, body = await http_request(
                "127.0.0.1", port, "POST", "/v1/conv", POISON_QUERY
            )
        except (ConnectionError, OSError):
            await asyncio.sleep(0.1)
            continue
        if status == 500:
            saw_probe = True  # the engine ran again: half-open re-admitted
        elif status == 422:
            if saw_probe:
                print("serve-chaos: half-open probe re-admitted, re-opened "
                      "on failure")
                return
            # Still open on this worker (per-worker breakers); wait out its
            # cooldown and try again.
            await asyncio.sleep(0.3)
        elif status in (429, 503, 504):
            await asyncio.sleep(0.2)
        else:
            raise SystemExit(f"half-open probe got HTTP {status}: {body}")
    raise SystemExit("never observed a half-open probe after cooldown")


async def run_campaign(port: int, status_file: pathlib.Path) -> dict:
    """Good + hostile traffic with two worker murders in the middle."""
    answered = {"good": 0, "hostile_4xx": 0, "hostile_closed": 0}

    async def one_good(i: int, rep: int) -> None:
        status, body, _ = await http_request_retry(
            "127.0.0.1", port, "POST", "/v1/conv", good_query(i),
            deadline_s=90.0,
        )
        if status != 200:
            raise SystemExit(
                f"good query {i}#{rep} ended {status}: {body}"
            )
        answered["good"] += 1

    async def one_hostile(round_i: int) -> None:
        kind = ("slowloris", "truncated-body", "garbage")[round_i % 3]
        outcome = await hostile_exchange(port, kind)
        answered[f"hostile_{'4xx' if outcome == '4xx' else 'closed'}"] += 1

    async def murder_two() -> None:
        await asyncio.sleep(1.0)  # mid-campaign, not before it
        extra = await asyncio.to_thread(
            read_supervisor,
            status_file, lambda e: len(e.get("worker_pids", [])) >= 2,
        )
        victims = sorted(extra["worker_pids"])[:2]
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        print(f"serve-chaos: kill -9 workers {victims}")

    tasks = [
        one_good(i, rep)
        for i in range(GOOD_SPECS)
        for rep in range(REPEATS_PER_SPEC)
    ]
    tasks += [one_hostile(i) for i in range(HOSTILE_ROUNDS)]
    tasks.append(murder_two())
    await asyncio.gather(*tasks)
    return answered


def campaign(
    proc: subprocess.Popen,
    log_path: pathlib.Path,
    status_file: pathlib.Path,
    store_dir: pathlib.Path,
) -> None:
    """Every gate in order; raises on the first that does not hold."""
    port = wait_for_port(proc, log_path)
    read_supervisor(
        status_file, lambda e: e.get("workers_alive") == WORKERS
    )
    print(f"serve-chaos: fleet of {WORKERS} up on port {port}")

    answered = asyncio.run(run_campaign(port, status_file))
    print(f"serve-chaos: campaign done: {answered}")
    expected = GOOD_SPECS * REPEATS_PER_SPEC
    assert answered["good"] == expected, answered
    assert (
        answered["hostile_4xx"] + answered["hostile_closed"]
        == HOSTILE_ROUNDS
    ), answered

    # The supervisor must have respawned the murdered (and any
    # chaos-crashed) workers back to full strength.
    extra = read_supervisor(
        status_file,
        lambda e: e.get("workers_alive") == WORKERS,
        deadline_s=60.0,
    )
    assert extra["workers_target"] == WORKERS, extra
    print(f"serve-chaos: supervisor restored {WORKERS} workers "
          f"(pids {sorted(extra['worker_pids'])})")

    asyncio.run(drive_breaker_trip(port))
    asyncio.run(prove_half_open(port))

    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    sys.stdout.write(log_path.read_text())
    assert rc == 0, f"supervisor exited {rc} on graceful shutdown"

    verify = subprocess.run(
        [sys.executable, "-m", "repro", "store", "verify", str(store_dir)],
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True,
    )
    sys.stdout.write(verify.stdout)
    if verify.returncode != 0:
        sys.stdout.write(verify.stderr)
        raise SystemExit(
            f"store verify failed ({verify.returncode}) after the campaign"
        )


def report_failure(
    err: BaseException,
    proc: subprocess.Popen,
    log_path: pathlib.Path,
    status_file: pathlib.Path,
    flight_dir: pathlib.Path,
) -> None:
    """Print the evidence a failed campaign leaves: the error, the last
    supervisor status, the daemon's output and the newest flight dumps."""
    print(f"serve-chaos: FAILED: {type(err).__name__}: {err}")
    try:
        doc = json.loads(status_file.read_text())
    except (OSError, json.JSONDecodeError) as status_err:
        print(f"serve-chaos: no supervisor status ({status_err})")
    else:
        extra = doc.get("extra", {})
        print("serve-chaos: last supervisor status: " + json.dumps({
            "workers_alive": extra.get("workers_alive"),
            "worker_pids": extra.get("worker_pids"),
            # The beacon files respawns under "supervisor", not "extra".
            "respawns": doc.get("supervisor", {}).get("respawns"),
            "degraded_single": extra.get("degraded_single"),
        }))
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    print(f"serve-chaos: daemon output (rc={proc.returncode}):")
    sys.stdout.write(log_path.read_text())
    dumps = sorted(flight_dir.glob("flightrec-*.json"),
                   key=lambda path: path.stat().st_mtime)[-FLIGHT_DUMPS_SHOWN:]
    print(f"serve-chaos: newest flight dumps ({len(dumps)}):")
    for path in dumps:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as dump_err:
            print(f"  {path.name}: unreadable ({dump_err})")
            continue
        print(f"  {path.name}: reason={doc.get('reason')} "
              f"extra={json.dumps(doc.get('extra'), sort_keys=True)}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        store_dir = tmp / "store"
        status_file = tmp / "supervisor.json"
        flight_dir = tmp / "flight"
        log_path = tmp / "serve.log"
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--store", str(store_dir),
                 "--status-file", str(status_file),
                 "--flight", str(flight_dir),
                 "--inject-faults", FAULTS,
                 "--breaker-threshold", str(BREAKER_THRESHOLD),
                 "--breaker-cooldown", str(BREAKER_COOLDOWN_S),
                 "--no-watchdog"],
                cwd=REPO,
                env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
                stdout=log, stderr=subprocess.STDOUT, text=True,
            )
        try:
            campaign(proc, log_path, status_file, store_dir)
        except BaseException as err:
            report_failure(err, proc, log_path, status_file, flight_dir)
            raise
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("serve-chaos: OK — every admitted request answered, fleet "
          "restored, breaker verdicts served, store verify clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
