"""Work-queue unit tests: tasks, results, failures, heartbeats, stop."""

import itertools
import json

import pytest

from repro.dse import queue as queue_module
from repro.dse.queue import Task, WorkQueue, task_shard


def _task(task_id="a64-s16-w8-h400-x1/AlexNet@4", cycles=1.0):
    return Task(
        task_id=task_id,
        payload={"point": {"array": 64}, "workload": "AlexNet@4",
                 "quick": True, "cycles": cycles},
    )


def _queue(tmp_path):
    queue = WorkQueue(tmp_path / "sweep")
    queue.ensure_dirs()
    return queue


# -------------------------------------------------------------------- tasks
def test_add_task_is_idempotent_on_load(tmp_path):
    queue = _queue(tmp_path)
    queue.add_task(_task())
    queue.add_task(_task())  # resume re-enqueue: same id appended again
    tasks = queue.load_tasks()
    assert list(tasks) == ["a64-s16-w8-h400-x1/AlexNet@4"]


def test_task_shard_is_stable_and_lease_name_safe(tmp_path):
    queue = _queue(tmp_path)
    tid = "a64-s16-w8-h400-x1/AlexNet@4"
    assert task_shard(tid) == task_shard(tid)
    assert queue.shard_path(tid).name == f"shard-{task_shard(tid)}.jsonl"
    assert "/" not in queue.lease_path(tid).name


# ------------------------------------------------------------------ results
def test_load_results_last_write_wins(tmp_path):
    queue = _queue(tmp_path)
    tid = _task().task_id
    queue.complete(tid, {"cycles": 1.0})
    queue.complete(tid, {"cycles": 2.0})
    assert queue.load_results()[tid] == {"cycles": 2.0}


def test_load_results_skips_torn_and_alien_lines(tmp_path):
    queue = _queue(tmp_path)
    tid = _task().task_id
    shard = queue.shard_path(tid)
    shard.parent.mkdir(parents=True, exist_ok=True)
    with open(shard, "a") as handle:
        handle.write('{"schema": 1, "task_id": "' + tid + '", "resu\n')
        handle.write(json.dumps({"schema": 99, "task_id": tid}) + "\n")
    queue.complete(tid, {"cycles": 3.0})
    assert queue.load_results() == {tid: {"cycles": 3.0}}


# ------------------------------------------------------------------- leases
def test_claim_renew_release_cycle(tmp_path):
    queue = _queue(tmp_path)
    tid = _task().task_id
    lease = queue.claim(tid, "w0", ttl_s=30.0)
    assert lease is not None and lease.generation == 1
    assert queue.claim(tid, "w1", ttl_s=30.0) is None  # held elsewhere
    assert queue.renew(tid, "w0", ttl_s=30.0) is not None
    assert queue.release(tid, "w0")
    assert queue.lease_of(tid) is None
    fresh = queue.claim(tid, "w1", ttl_s=30.0)
    assert fresh is not None and fresh.generation == 1


def test_claim_steals_expired_lease_with_generation_bump(tmp_path):
    queue = _queue(tmp_path)
    tid = _task().task_id
    assert queue.claim(tid, "dead", ttl_s=0.0) is not None  # expires now
    stolen = queue.claim(tid, "survivor", ttl_s=30.0)
    assert stolen is not None
    assert stolen.owner == "survivor" and stolen.generation == 2
    # The fenced former owner can no longer renew.
    assert queue.renew(tid, "dead", ttl_s=30.0) is None


def test_claim_skips_a_task_another_queue_completed(tmp_path):
    """A worker acting on a stale pending list must not re-evaluate a task
    another worker finished: claim sees the result and lets the lease go."""
    queue_a = _queue(tmp_path)
    queue_b = WorkQueue(queue_a.root)
    tid = _task().task_id
    assert queue_a.claim(tid, "w0", ttl_s=30.0) is not None
    queue_a.complete(tid, {"cycles": 1.0})
    assert queue_a.release(tid, "w0")
    assert queue_b.claim(tid, "w1", ttl_s=30.0) is None
    assert queue_b.lease_of(tid) is None
    assert not queue_b.lease_path(tid).exists()
    # Another task's result in the same shard does not count.
    other = next(
        f"{tid}-{i}" for i in itertools.count()
        if task_shard(f"{tid}-{i}") == task_shard(tid)
    )
    assert queue_b.has_result(tid) and not queue_b.has_result(other)


# ----------------------------------------------------------------- failures
def test_failures_group_by_task(tmp_path):
    queue = _queue(tmp_path)
    queue.record_failure("t/a", "w0", 1, kind="TransientFault", error="x")
    queue.record_failure("t/a", "w1", 2, kind="PermanentFault", error="y")
    queue.record_failure("t/b", "w0", 1, kind="TransientFault", error="z")
    failures = queue.load_failures()
    assert [f["attempt"] for f in failures["t/a"]] == [1, 2]
    assert len(failures["t/b"]) == 1


# --------------------------------------------------------------- heartbeats
def test_heartbeats_are_atomic_and_readable(tmp_path):
    queue = _queue(tmp_path)
    queue.heartbeat("w0.1", state="running", task="t/a", done=3)
    queue.heartbeat("w0.1", state="idle", done=4)  # replaces, not appends
    beats = queue.load_heartbeats()
    assert beats["w0.1"]["state"] == "idle" and beats["w0.1"]["done"] == 4
    assert "pid" in beats["w0.1"] and "time" in beats["w0.1"]


def test_heartbeat_rewrites_an_unchanged_state_at_most_once_per_interval(
    tmp_path, monkeypatch
):
    queue = _queue(tmp_path)
    path = queue.workers_dir / "w0.1.json"
    monkeypatch.setattr(queue_module, "HEARTBEAT_INTERVAL_S", 3600.0)
    queue.heartbeat("w0.1", state="running", task="t/a", done=0)
    first = path.read_bytes()
    # Same state within the interval: the file is left alone.
    queue.heartbeat("w0.1", state="running", task="t/b", done=1)
    assert path.read_bytes() == first
    # A state change is written at once.
    queue.heartbeat("w0.1", state="idle", done=1)
    assert queue.load_heartbeats()["w0.1"]["state"] == "idle"
    # Once the interval has passed, the same state is rewritten.
    monkeypatch.setattr(queue_module, "HEARTBEAT_INTERVAL_S", 0.0)
    queue.heartbeat("w0.1", state="idle", done=2)
    assert queue.load_heartbeats()["w0.1"]["done"] == 2


@pytest.mark.parametrize("bad", ["[1, 2]", "7", '"x"', "null"])
def test_load_heartbeats_skips_valid_json_that_is_not_a_record(tmp_path, bad):
    queue = _queue(tmp_path)
    (queue.workers_dir / "w0.1.json").write_text(bad)
    queue.heartbeat("w1.1", state="idle", done=2)
    assert list(queue.load_heartbeats()) == ["w1.1"]


# --------------------------------------------------------------------- stop
def test_stop_sentinel_roundtrip(tmp_path):
    queue = _queue(tmp_path)
    assert not queue.stop_requested()
    queue.request_stop()
    assert queue.stop_requested()
    queue.clear_stop()
    assert not queue.stop_requested()
    queue.clear_stop()  # idempotent on a missing sentinel
