"""Supervised multi-worker serving: fork, kill -9, respawn, drain.

Boots the real ``repro serve --workers 2`` CLI in a subprocess, murders a
worker with SIGKILL, and watches the supervising parent restore the
fleet (via the supervisor status file), then drains the whole tree with
SIGTERM and expects exit 0.
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


def _launch(tmp_path, extra_args=()):
    status_file = tmp_path / "beacon.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", "2", "--port", "0", "--no-watchdog",
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


def test_worker_killed_with_sigkill_is_respawned(tmp_path):
    proc, port, status_file = _launch(tmp_path)
    try:
        extra = _read_status(
            status_file, want=lambda e: e.get("workers_alive") == 2
        )
        first_pids = set(extra["worker_pids"])
        assert len(first_pids) == 2
        status, body, _ = _ask(port)
        assert status == 200

        victim = sorted(first_pids)[0]
        os.kill(victim, signal.SIGKILL)
        extra = _read_status(
            status_file,
            want=lambda e: (
                e.get("workers_alive") == 2
                and victim not in e.get("worker_pids", [])
            ),
        )
        assert extra["respawns"] >= 1
        assert extra["workers_target"] == 2
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


def test_supervised_fleet_drains_cleanly_on_sigterm(tmp_path):
    proc, port, status_file = _launch(tmp_path)
    try:
        _read_status(status_file, want=lambda e: e.get("workers_alive") == 2)
        status, _, _ = _ask(port, "/readyz")
        assert status == 200
    finally:
        rc, out = _shutdown(proc)
    assert rc == 0, f"supervisor exited {rc}:\n{out}"
    assert "supervisor drained" in out
    assert "respawns=0" in out


def test_bad_inject_faults_spec_exits_2_before_forking(tmp_path):
    # Parsed per worker, a bad plan would kill every worker at start-up and
    # the supervisor would respawn them forever; it must be refused first.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", "2", "--port", "0", "--no-watchdog",
         "--inject-faults", "serve=no-such-mode"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("serve with a bad --inject-faults spec still ran after 10 s")
    assert proc.returncode == 2, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "bad --inject-faults spec" in errors[0], err
    assert "listening" not in out
