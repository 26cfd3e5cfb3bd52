"""Coordinator tests: validation, serial sweeps, resume, chaos, quarantine.

Everything here runs the engine in-process (serial mode, or with the
coordinator draining the queue itself); the subprocess chaos e2e with a
real ``kill -9`` lives in ``test_chaos_e2e.py``.
"""

import dataclasses
import json

import pytest

from repro.dse.engine import (
    SweepConfig,
    replay_quarantine,
    run_sweep,
    sweep_status,
)
from repro.dse.frontier import FrontierJournal
from repro.errors import ConfigError

WORKLOADS = ("AlexNet@4",)


def _config(out, **overrides):
    base = dict(
        out=str(out), preset="smoke", workloads=WORKLOADS, quick=True,
        rounds=2, lease_ttl_s=30.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One fault-free serial sweep, shared by the read-only tests."""
    out = tmp_path_factory.mktemp("dse-ref") / "sweep"
    summary = run_sweep(_config(out))
    return out, summary


# --------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "overrides",
    [
        {"preset": "galactic"},
        {"rounds": 0},
        {"jobs": 0},
        {"lease_ttl_s": 0.0},
        {"max_task_failures": 1},  # one crash must never quarantine
        {"workloads": ("NoSuchNet@8",)},
        {"workloads": ("AlexNet@-1",)},
        {"inject_faults": "explode"},
    ],
)
def test_validate_rejects_bad_configs(tmp_path, overrides):
    with pytest.raises(ConfigError):
        _config(tmp_path / "s", **overrides).validate()


# ------------------------------------------------------------ serial sweeps
def test_serial_sweep_produces_artifact_journal_metrics(reference):
    out, summary = reference
    assert summary["frontier"], "smoke sweep found an empty frontier"
    assert summary["points_evaluated"] >= len(summary["frontier"])
    assert summary["quarantined"] == [] and not summary["degraded"]

    artifact = json.loads((out / "frontier.json").read_text())
    assert artifact["frontier"] == summary["frontier"]
    assert artifact["rounds"] == 2

    rounds = FrontierJournal(out / "frontier.jsonl").load()
    assert [rec["round"] for rec in rounds] == [0, 1]

    prom = (out / "metrics.prom").read_text()
    assert "repro_dse_tasks_total" in prom
    assert "repro_dse_frontier_size" in prom


def test_status_reads_a_finished_sweep_from_disk(reference):
    out, summary = reference
    status = sweep_status(str(out))
    assert status["pending"] == 0
    assert status["results"] == status["tasks"] > 0
    assert status["last_frontier"] == summary["frontier"]
    assert status["artifact"] is not None


def test_serial_sweep_reports_the_coordinator_heartbeat(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(_config(out))
    status = sweep_status(str(out))
    coordinator = status["workers"]["coordinator"]
    assert coordinator["state"] == "stopped"
    assert coordinator["done"] == status["results"] > 0


def test_serial_sweep_dumps_every_failed_task(tmp_path):
    out = tmp_path / "flaky"
    run_sweep(_config(out, inject_faults="flaky,rate=1.0"))
    failures = (out / "failures.jsonl").read_text().splitlines()
    dumps = sorted(out.glob("flightrec-dse-task-failure-*.json"))
    assert failures and len(dumps) == len(failures)


def test_sweeps_are_deterministic_across_directories(reference, tmp_path):
    out, _ = reference
    again = tmp_path / "again"
    run_sweep(_config(again))
    assert (again / "frontier.json").read_bytes() == (
        out / "frontier.json"
    ).read_bytes()


def test_resume_is_idempotent_on_a_finished_sweep(reference):
    out, _ = reference
    before_artifact = (out / "frontier.json").read_bytes()
    before_journal = (out / "frontier.jsonl").read_text()
    run_sweep(_config(out, resume=True))
    assert (out / "frontier.json").read_bytes() == before_artifact
    # Already-journaled rounds must not be appended again.
    assert (out / "frontier.jsonl").read_text() == before_journal


# ----------------------------------------------------------- sweep identity
def test_existing_sweep_dir_requires_resume(reference):
    out, _ = reference
    with pytest.raises(ConfigError, match="--resume"):
        run_sweep(_config(out))


def test_resume_rejects_identity_mismatch(reference):
    out, _ = reference
    with pytest.raises(ConfigError, match="identity mismatch"):
        run_sweep(_config(out, rounds=3, resume=True))


# ------------------------------------------------------------------- chaos
def test_serial_chaos_converges_to_the_fault_free_bytes(reference, tmp_path):
    out, _ = reference
    chaotic = tmp_path / "chaotic"
    summary = run_sweep(
        _config(
            chaotic,
            inject_faults="crash,hang,flaky,corrupt-store,rate=1.0,seed=7",
        )
    )
    assert summary["quarantined"] == []
    assert (chaotic / "frontier.json").read_bytes() == (
        out / "frontier.json"
    ).read_bytes()
    # rate=1.0 guarantees the transient kinds actually fired and healed.
    failures = (chaotic / "failures.jsonl").read_text().splitlines()
    assert failures


# -------------------------------------------------------------- quarantine
def test_poison_tasks_quarantine_and_replay(tmp_path):
    out = tmp_path / "poisoned"
    summary = run_sweep(_config(out, inject_faults="poison=a64-s16"))
    assert summary["quarantined"], "poison campaign parked nothing"
    assert all("a64-s16" in tid for tid in summary["quarantined"])
    assert summary["points_excluded"], "poisoned points still on the frontier"

    artifact = json.loads((out / "frontier.json").read_text())
    assert artifact["quarantined"] == summary["quarantined"]
    for point_id in summary["points_excluded"]:
        assert point_id not in artifact["frontier"]

    # Replay re-runs the parked configs clean (no chaos): every one passes
    # and its result is journaled for the next --resume to fold back in.
    report = replay_quarantine(str(out))
    assert {entry["task_id"] for entry in report} == set(summary["quarantined"])
    assert all(entry["status"] == "pass" for entry in report)
