"""Supervised serving: fork, kill -9, respawn, drain.

Boots the real ``repro serve --workers N`` CLI in a subprocess (every
daemon is supervised, the default single worker included), murders a
worker with SIGKILL, and watches the supervising parent restore the
fleet (via the supervisor status file), then drains the whole tree with
SIGTERM and expects exit 0.  Settings that would leave a daemon answering
nothing are refused before anything forks.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)

REPO = Path(__file__).resolve().parents[2]
LISTEN_RE = re.compile(r"listening on http://[0-9.]+:(\d+)")


def _launch(tmp_path, workers, extra_args=()):
    status_file = tmp_path / "beacon.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", str(workers), "--port", "0", "--no-watchdog",
         "--status-file", str(status_file), *extra_args],
        cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = proc.stdout.readline()
    match = LISTEN_RE.search(line)
    assert match, f"no listening line, got: {line!r}"
    return proc, int(match.group(1)), status_file


def _read_status(status_file, deadline_s=20.0, want=None):
    """Poll the supervisor beacon until ``want(extra)`` holds.

    Returns the ``extra`` section (workers_alive/worker_pids/...), with
    the beacon's first-class ``supervisor.respawns`` counter merged in.
    """
    deadline = time.monotonic() + deadline_s
    last = None
    while time.monotonic() < deadline:
        try:
            doc = json.loads(status_file.read_text())
        except (OSError, json.JSONDecodeError):
            time.sleep(0.1)
            continue
        last = dict(doc.get("extra", {}))
        last["respawns"] = doc.get("supervisor", {}).get("respawns", 0)
        if want is None or want(last):
            return last
        time.sleep(0.1)
    raise AssertionError(f"supervisor status never converged; last: {last}")


def _ask(port, path="/healthz", method="GET", payload=None, deadline_s=30.0):
    from repro.store.serve import http_request_retry

    return asyncio.run(
        http_request_retry(
            "127.0.0.1", port, method, path, payload, deadline_s=deadline_s
        )
    )


def _shutdown(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise AssertionError(f"supervisor did not drain; output:\n{out}")
    return proc.returncode, out


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_killed_with_sigkill_is_respawned(tmp_path, workers):
    proc, port, status_file = _launch(tmp_path, workers)
    try:
        extra = _read_status(
            status_file, want=lambda e: e.get("workers_alive") == workers
        )
        first_pids = set(extra["worker_pids"])
        assert len(first_pids) == workers
        status, body, _ = _ask(port)
        assert status == 200

        victim = sorted(first_pids)[0]
        os.kill(victim, signal.SIGKILL)
        extra = _read_status(
            status_file,
            want=lambda e: (
                e.get("workers_alive") == workers
                and victim not in e.get("worker_pids", [])
            ),
        )
        assert extra["respawns"] >= 1
        assert extra["workers_target"] == workers
        # The fleet still answers after the murder + respawn.
        spec = {"n": 1, "c_in": 8, "h_in": 7, "w_in": 7, "c_out": 8,
                "h_filter": 3, "w_filter": 3, "stride": 1, "padding": 1,
                "name": "workers-spec"}
        status, body, _ = _ask(port, "/v1/conv", "POST", {"spec": spec})
        assert status == 200 and body["cycles"] > 0
    finally:
        rc, out = _shutdown(proc)
    assert rc == 0, f"supervisor exited {rc}:\n{out}"
    assert "supervisor drained" in out


@pytest.mark.parametrize("workers", [1, 2])
def test_supervised_fleet_drains_cleanly_on_sigterm(tmp_path, workers):
    proc, port, status_file = _launch(tmp_path, workers)
    try:
        _read_status(
            status_file, want=lambda e: e.get("workers_alive") == workers
        )
        status, _, _ = _ask(port, "/readyz")
        assert status == 200
    finally:
        rc, out = _shutdown(proc)
    assert rc == 0, f"supervisor exited {rc}:\n{out}"
    assert "supervisor drained" in out
    assert "respawns=0" in out


def _run_refused(tmp_path, *args):
    """Run ``repro serve ARGS`` that must exit on its own within 10 s;
    returns ``(returncode, stdout, stderr)``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--no-watchdog", *args],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"serve {' '.join(args)} still ran after 10 s")
    return proc.returncode, out, err


def test_bad_inject_faults_spec_exits_2_before_forking(tmp_path):
    # Parsed per worker, a bad plan would kill every worker at start-up and
    # the supervisor would respawn them forever; it must be refused first.
    rc, out, err = _run_refused(
        tmp_path, "--workers", "2", "--inject-faults", "serve=no-such-mode"
    )
    assert rc == 2, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "bad --inject-faults spec" in errors[0], err
    assert "listening" not in out


@pytest.mark.parametrize(
    "flag, value",
    [("--workers", "0"), ("--max-batch", "0"), ("--max-pending", "0"),
     ("--default-deadline-ms", "0")],
)
def test_setting_that_answers_nothing_exits_2_before_forking(
    tmp_path, flag, value
):
    # Each would leave a daemon that prices nothing, sheds every query or
    # times every query out; like a bad plan, it is refused before forking.
    rc, out, err = _run_refused(tmp_path, flag, value)
    assert rc == 2, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {flag} must "), err
    assert f"got {value}" in errors[0], err
    assert "listening" not in out
