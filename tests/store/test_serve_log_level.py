"""``repro serve --log-level`` reaches the daemon's stderr.

``repro`` applies ``--log-level`` before it hands over to the daemon, which
then re-wires its log sink per process; the threshold must survive that in
every supervised worker, whether the daemon runs one worker or several.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
        ),
    ],
)
def test_serve_log_level_info_prints_listening_event(tmp_path, workers):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-watchdog",
         "--workers", str(workers), "--log-level", "info"],
        cwd=tmp_path, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    lines = []

    def pump():
        for line in proc.stderr:
            lines.append(line)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = time.monotonic() + 30.0
    try:
        while time.monotonic() < deadline and proc.poll() is None:
            if any("serve.listening" in line for line in lines):
                break
            time.sleep(0.1)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
    assert any("serve.listening" in line for line in lines), "".join(lines)
