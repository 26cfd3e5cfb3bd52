"""End-to-end sweep-resilience smoke: chaos + kill -9 + resume, byte-compare.

The scripted acceptance check behind the DSE engine (``make dse-smoke``,
CI's ``dse`` job):

1. run a small smoke-preset sweep **serially, fault-free** to produce the
   reference ``frontier.json``, and require ``dse status`` to show the
   coordinator's heartbeat ``stopped`` with every task done by it;
2. run the same sweep sharded (``--jobs 4``) under the full chaos
   campaign (``--inject-faults crash,hang,flaky,corrupt-store``), wait
   until results are flowing, then ``SIGKILL`` the coordinator's whole
   process group — workers and all;
3. ``--resume`` the killed sweep (chaos still on) and require the final
   ``frontier.json`` to be **byte-identical** to the fault-free serial
   reference;
4. require the chaos run to have actually exercised the machinery
   (failure records, and lease steals or worker respawns in the journal).

Exits 0 on success, 1 with a diagnosis otherwise.  Run from the repo root:

    python tools/dse_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

SWEEP_ARGS = [
    "--preset", "smoke",
    "--workloads", "AlexNet@4",
    "--quick",
    "--rounds", "2",
]
CHAOS = "crash,hang,flaky,corrupt-store,rate=0.5,seed=7"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _dse(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", "dse", *argv],
        cwd=REPO, env=_env(), capture_output=True, text=True,
        timeout=600, **kwargs,
    )


def fail(message: str) -> int:
    print(f"DSE SMOKE FAILED: {message}", file=sys.stderr)
    return 1


def _result_count(out: pathlib.Path) -> int:
    count = 0
    for shard in (out / "results").glob("shard-*.jsonl"):
        count += sum(1 for line in shard.read_text().splitlines() if line)
    return count


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dse-smoke-") as tmp:
        tmp = pathlib.Path(tmp)
        serial_out = tmp / "serial"
        chaos_out = tmp / "chaos"

        print("[1/4] fault-free serial reference sweep")
        reference = _dse(["sweep", "--out", str(serial_out), *SWEEP_ARGS])
        if reference.returncode != 0:
            return fail(
                f"serial reference failed rc={reference.returncode}: "
                f"{reference.stderr[-800:]}"
            )
        reference_bytes = (serial_out / "frontier.json").read_bytes()
        status = _dse(["status", "--out", str(serial_out), "--json"])
        if status.returncode != 0:
            return fail(f"dse status failed: {status.stderr[-400:]}")
        doc = json.loads(status.stdout)
        coordinator = doc["workers"].get("coordinator", {})
        if coordinator.get("state") != "stopped" or (
            coordinator.get("done") != doc["tasks"]
        ):
            return fail(
                "serial sweep's coordinator heartbeat should read stopped "
                f"with done == {doc['tasks']} tasks; status workers: "
                f"{doc['workers']}"
            )
        print(
            f"      coordinator heartbeat: stopped, done {coordinator['done']}"
        )

        print("[2/4] chaos sweep (--jobs 4), kill -9 mid-flight")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "dse", "sweep",
             "--out", str(chaos_out), *SWEEP_ARGS,
             "--jobs", "4", "--lease-s", "2", "--inject-faults", CHAOS],
            cwd=REPO, env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if _result_count(chaos_out) >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.1)
            else:
                return fail("chaos sweep produced no results within 120s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        if (chaos_out / "frontier.json").exists() and proc.returncode == 0:
            # The sweep finished before the kill landed; the resume below
            # then only rebuilds the artifact — still a valid byte-compare,
            # but flag it so a systematically-too-fast smoke gets noticed.
            print("      note: sweep finished before the kill landed")

        print("[3/4] resume the killed sweep (chaos still on)")
        resumed = _dse(
            ["sweep", "--out", str(chaos_out), *SWEEP_ARGS,
             "--jobs", "4", "--lease-s", "2", "--inject-faults", CHAOS,
             "--resume"]
        )
        if resumed.returncode != 0:
            return fail(
                f"resume failed rc={resumed.returncode}: "
                f"{resumed.stderr[-800:]}"
            )
        chaos_bytes = (chaos_out / "frontier.json").read_bytes()
        if chaos_bytes != reference_bytes:
            return fail(
                "frontier.json differs between the fault-free serial run "
                "and the chaotic kill-9'd/resumed run"
            )
        print("      frontier.json is byte-identical to the reference")

        print("[4/4] chaos actually exercised the machinery")
        failures_path = chaos_out / "failures.jsonl"
        failures = (
            [json.loads(line) for line in
             failures_path.read_text().splitlines() if line]
            if failures_path.exists() else []
        )
        if not failures:
            return fail(
                "chaos campaign recorded no task failures — the fault "
                "plan did not engage"
            )
        status = _dse(["status", "--out", str(chaos_out), "--json"])
        if status.returncode != 0:
            return fail(f"dse status failed: {status.stderr[-400:]}")
        print(
            f"      {len(failures)} injected failure(s) survived; "
            "status reads clean"
        )
    print("DSE SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
