"""The sweep worker: claim → evaluate → journal, forever, crash-safely.

A worker is a loop over the on-disk queue and nothing else — it shares no
memory with the coordinator, so the coordinator respawning it (or chaos
killing it) loses at most one in-flight evaluation, which the lease
protocol hands to a survivor after the TTL.

:func:`run_pass` is the only code that claims sweep tasks: workers poll
it, and the coordinator runs it as owner ``coordinator`` (serial mode,
and after pool degradation).  Per task: claim the lease (skipping tasks
someone else holds), fire any injected chaos fault, evaluate the (design
point, workload) pair, append the deterministic result to the task's
shard journal, release the lease.  Failures append to ``failures.jsonl``
and move on — deciding whether a task is *poison* is the coordinator's
job, not the worker's.

Each owner's heartbeat file (:meth:`WorkQueue.heartbeat`) is read only by
``repro dse status``; liveness is the lease TTL.  A flight-recorder dump
marks each failed task and each reclaimed lease — post-mortem context for
the task, or for the owner that died holding it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from ..errors import classify_error
from ..obs import log as obs_log
from ..obs.flight import configure_recorder, maybe_dump
from ..resilience.quarantine import QuarantineFile
from .chaos import ChaosPlan
from .evaluate import evaluate_task
from .queue import WorkQueue
from .space import DesignPoint

__all__ = ["run_pass", "run_worker", "worker_entry"]

#: Idle poll interval — how often a worker with nothing claimable re-reads
#: the task journal (the coordinator appends new rounds to it).
POLL_S = 0.2


def run_pass(
    queue: WorkQueue,
    owner: str,
    lease_ttl_s: float,
    max_failures: int,
    chaos: Optional[ChaosPlan] = None,
    done: int = 0,
) -> Tuple[int, int, int]:
    """One claim → evaluate → journal walk over the pending tasks (no
    result, not quarantined); returns ``(pending, claimed, completed)``.

    A task with ``max_failures`` recorded failures is *skipped*, not
    retried — it is awaiting the coordinator's poison verdict, and
    hammering it would only inflate the failure journal meanwhile.
    ``done`` is what ``owner`` completed before this pass; its heartbeats
    count on from there.
    """
    tasks = queue.load_tasks()
    results = queue.load_results()
    parked = QuarantineFile(queue.root / "quarantine.jsonl").load()
    pending = sorted(
        tid for tid in tasks if tid not in results and tid not in parked
    )
    claimed = completed = 0
    for task_id in pending:
        if queue.stop_requested():
            break
        recorded = len(queue.load_failures().get(task_id, []))
        if recorded >= max_failures:
            continue  # awaiting the coordinator's poison verdict
        lease = queue.claim(task_id, owner, lease_ttl_s)
        if lease is None:
            continue  # someone else holds it
        claimed += 1
        if lease.generation > 1:
            # This owner just reclaimed a dead/hung owner's task — keep
            # the post-mortem context around.
            maybe_dump(
                "lease-reclaim",
                {"task": task_id, "owner": owner, "generation": lease.generation},
            )
        queue.heartbeat(
            owner, state="running", task=task_id, done=done + completed
        )
        attempt = recorded + 1
        try:
            if chaos is not None:
                chaos.apply(queue, task_id, attempt, lease.generation)
            queue.complete(task_id, _evaluate(tasks[task_id].payload))
            completed += 1
        except Exception as err:  # journal and move on — never die
            kind = classify_error(err).__name__
            queue.record_failure(
                task_id, owner, attempt, kind=kind, error=str(err)
            )
            obs_log.warning(
                "dse.task.failed",
                task=task_id, attempt=attempt, kind=kind, error=str(err),
            )
            maybe_dump(
                "dse-task-failure",
                {"task": task_id, "attempt": attempt, "kind": kind},
            )
        finally:
            queue.release(task_id, owner)
    return len(pending), claimed, completed


def run_worker(
    root,
    worker_id: str,
    lease_ttl_s: float,
    max_failures: int,
    chaos: Optional[ChaosPlan] = None,
    store_dir: Optional[str] = None,
    poll_s: float = POLL_S,
) -> int:
    """The worker main loop; returns the number of tasks completed."""
    queue = WorkQueue(root)
    queue.ensure_dirs()
    if store_dir:
        from ..store import attach

        attach(store_dir)
    completed = 0
    queue.heartbeat(worker_id, state="starting", done=completed)
    while not queue.stop_requested():
        pending, claimed, finished = run_pass(
            queue, worker_id, lease_ttl_s, max_failures, chaos, done=completed
        )
        completed += finished
        if not pending:
            queue.heartbeat(worker_id, state="idle", done=completed)
        if not claimed:
            time.sleep(poll_s)  # nothing pending, or all of it leased elsewhere
    queue.heartbeat(worker_id, state="stopped", done=completed)
    return completed


def _evaluate(payload: Dict[str, Any]) -> Dict[str, Any]:
    point = DesignPoint.from_doc(payload["point"])
    return evaluate_task(
        point, str(payload["workload"]), quick=bool(payload.get("quick"))
    )


def worker_entry(
    root: str,
    worker_id: str,
    lease_ttl_s: float,
    chaos_doc: Optional[Dict[str, Any]],
    store_dir: Optional[str],
    max_failures: int,
) -> None:
    """Subprocess entry point (multiprocessing target)."""
    configure_recorder(run_dir=str(root), install_signal=False)
    chaos = ChaosPlan.from_doc(chaos_doc) if chaos_doc else None
    try:
        run_worker(
            root, worker_id, lease_ttl_s, max_failures, chaos=chaos,
            store_dir=store_dir,
        )
    except KeyboardInterrupt:
        pass
