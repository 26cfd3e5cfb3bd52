"""Worker supervision: timeouts, retries with backoff, pool respawn, degrade.

:class:`Supervisor` runs a list of tasks through one function — in this
process when ``jobs == 1``, over a ``ProcessPoolExecutor`` otherwise — so
that no single hung, crashed or failing task voids the rest:

- **wall-clock timeouts** — each task gets ``timeout_s`` from the moment
  it is handed to the pool; a task that blows its deadline has its pool
  *killed* (a hung worker cannot be cancelled politely) and is charged a
  :class:`~repro.errors.TransientFault`, while innocent co-resident tasks
  are requeued without losing an attempt;
- **retries with exponential backoff + jitter** — transient failures are
  rescheduled after ``backoff_base_s * 2**(attempt-1)`` (capped), with a
  jitter fraction drawn from a :class:`random.Random` seeded by
  ``(seed, task, attempt)`` so the schedule is deterministic under a seed;
- **pool respawn** — a crashed worker breaks the whole
  ``ProcessPoolExecutor``; the supervisor builds a fresh pool and
  resubmits the survivors.  After ``max_pool_respawns`` consecutive
  deaths it **degrades to serial** execution in the supervising process
  (process-level fault injection is disabled there by construction), so
  a sweep limps home instead of dying;
- **classification** — every failure is mapped onto the
  :class:`TransientFault` / :class:`PermanentFault` /
  :class:`AuditFault` taxonomy by :func:`repro.errors.classify_error`;
  only transients are retried;
- **clean interrupts** — on ``KeyboardInterrupt`` the pool is torn down
  (workers ignore SIGINT via their initializer, so there is no traceback
  spray) and the interrupt propagates to the caller, which flushes its
  checkpoint journal and exits 130.

Everything the supervisor observed — retries, timeouts, respawns,
per-class fault counts — lands in an :class:`ErrorBudget` for the run
manifest and as :mod:`repro.obs` events.
"""

from __future__ import annotations

import dataclasses
import random
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    TransientFault,
    classify_error,
)
from ..obs import log as obs_log

__all__ = [
    "RetryPolicy",
    "TaskSpec",
    "TaskFailure",
    "ErrorBudget",
    "SupervisorReport",
    "Supervisor",
]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout knobs of one supervised run."""

    #: Retries *beyond* the first attempt for transient faults.
    max_retries: int = 2
    #: Per-task wall-clock limit in seconds (None = no timeout).
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Fraction of the backoff randomised (0 = fully deterministic delay).
    jitter: float = 0.5
    #: Seed for the jitter stream — same seed, same schedule.
    seed: int = 0
    #: Consecutive pool deaths tolerated before degrading to serial.
    max_pool_respawns: int = 3

    def backoff_s(self, task_index: int, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (>= 2)."""
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** max(0, attempt - 2))
        )
        rng = random.Random(f"{self.seed}:backoff:{task_index}:{attempt}")
        return base * (1.0 - self.jitter) + base * self.jitter * rng.random()


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One unit of supervised work."""

    index: int  # stable 0-based position in the scheduled task list
    key: str  # human-readable label (the experiment id)
    payload: Any  # forwarded to the task function verbatim


@dataclasses.dataclass
class TaskFailure:
    """A task that exhausted its attempts (or failed permanently)."""

    index: int
    key: str
    fault: str  # taxonomy class name
    message: str
    attempts: int


@dataclasses.dataclass
class ErrorBudget:
    """Everything the supervisor survived, for the manifest + obs events."""

    tasks: int = 0
    succeeded: int = 0
    failed: int = 0
    transient_retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    degraded_serial: bool = False
    faults_by_class: Dict[str, int] = dataclasses.field(default_factory=dict)

    def count_fault(self, fault_class: str) -> None:
        self.faults_by_class[fault_class] = (
            self.faults_by_class.get(fault_class, 0) + 1
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    results: Dict[int, Any]
    failures: List[TaskFailure]
    budget: ErrorBudget

    @property
    def ok(self) -> bool:
        return not self.failures


def _ignore_sigint() -> None:  # pragma: no cover - runs in pool workers
    """Pool-worker initializer: the supervisor owns interrupt handling."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class _PoolDied(Exception):
    """Internal: the process pool broke under us (crash or timeout kill)."""


class Supervisor:
    """Runs :class:`TaskSpec` s through ``fn`` under a retry/timeout policy.

    With ``jobs == 1``, ``fn(payload, index, attempt)`` runs in this
    process, one task at a time, with the same retry backoff (timeouts are
    not enforced there: nothing can preempt an in-process task).  With
    ``jobs > 1`` it runs in pool workers, so it must be picklable
    (module-level), and in this process only after degradation.
    ``on_result(task, result)`` fires in the supervising process as each
    task completes — the runner uses it to journal checkpoints.
    """

    #: Seconds between deadline sweeps while waiting on the pool.
    _POLL_S = 0.1

    def __init__(
        self,
        fn: Callable[[Any, int, int], Any],
        jobs: int = 1,
        policy: RetryPolicy = RetryPolicy(),
        on_result: Optional[Callable[[TaskSpec, Any], None]] = None,
    ) -> None:
        self.fn = fn
        self.jobs = max(1, int(jobs))
        self.policy = policy
        self.on_result = on_result
        self._pool = None

    # ------------------------------------------------------------ plumbing
    def _new_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_ignore_sigint
        )

    def _kill_pool(self) -> None:
        """Tear the pool down hard — hung workers get SIGKILL."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - cancel_futures needs 3.9+
            pool.shutdown(wait=False)
        for proc in processes:
            if proc.is_alive():
                proc.kill()
        for proc in processes:
            proc.join(timeout=5)

    # ------------------------------------------------------------- running
    def run(self, tasks: Sequence[TaskSpec]) -> SupervisorReport:
        # Imported here, not at module top: obs.flight pulls in
        # resilience.atomic, and this module is imported by the package init.
        from ..obs.flight.beacon import get_beacon
        from ..obs.flight.recorder import maybe_dump

        beacon = get_beacon()
        beacon.tasks_total += len(tasks)
        beacon.update(workers=self.jobs)
        budget = ErrorBudget(tasks=len(tasks))
        results: Dict[int, Any] = {}
        failures: List[TaskFailure] = []
        # (task, attempt) queues: ready now, and ready at a future time.
        ready: List[Tuple[TaskSpec, int]] = [(t, 1) for t in tasks]
        delayed: List[Tuple[float, TaskSpec, int]] = []
        outstanding: Dict[Any, Tuple[TaskSpec, int, Optional[float]]] = {}
        consecutive_deaths = 0

        def record_failure(task: TaskSpec, attempt: int, fault, message: str) -> None:
            budget.failed += 1
            budget.count_fault(fault.__name__)
            beacon.task_done(task.key, ok=False)
            failures.append(
                TaskFailure(
                    index=task.index, key=task.key, fault=fault.__name__,
                    message=message, attempts=attempt,
                )
            )
            obs_log.error(
                "supervisor.task_failed",
                task=task.key, index=task.index, fault=fault.__name__,
                attempts=attempt, error=message,
            )

        def retry_or_fail(task: TaskSpec, attempt: int, fault, message: str) -> None:
            if fault.retryable and attempt <= self.policy.max_retries:
                budget.transient_retries += 1
                budget.count_fault(fault.__name__)
                beacon.retries += 1
                beacon.active.pop(task.key, None)
                delay = self.policy.backoff_s(task.index, attempt + 1)
                delayed.append((time.monotonic() + delay, task, attempt + 1))
                obs_log.warning(
                    "supervisor.retry",
                    task=task.key, index=task.index, attempt=attempt,
                    fault=fault.__name__, backoff_s=round(delay, 4),
                    error=message,
                )
            else:
                record_failure(task, attempt, fault, message)

        def succeed(task: TaskSpec, attempt: int, value: Any) -> None:
            results[task.index] = value
            budget.succeeded += 1
            beacon.task_done(task.key, ok=True)
            if self.on_result is not None:
                self.on_result(task, value)

        def run_serial(task: TaskSpec, attempt: int) -> None:
            """Degraded-mode execution in the supervising process."""
            beacon.task_started(task.key)
            try:
                value = self.fn(task.payload, task.index, attempt)
            except KeyboardInterrupt:
                raise
            except BaseException as err:
                retry_or_fail(task, attempt, classify_error(err), repr(err))
            else:
                succeed(task, attempt, value)

        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        if self.jobs > 1:
            self._pool = self._new_pool()
        degraded = self._pool is None and self.jobs > 1

        try:
            while ready or delayed or outstanding:
                now = time.monotonic()
                # Promote delayed retries whose backoff elapsed.
                still_delayed = []
                for ready_at, task, attempt in delayed:
                    if ready_at <= now:
                        ready.append((task, attempt))
                    else:
                        still_delayed.append((ready_at, task, attempt))
                delayed = still_delayed

                if self._pool is None:
                    # Serial mode (jobs == 1, or degraded after pool deaths).
                    if ready:
                        task, attempt = ready.pop(0)
                        run_serial(task, attempt)
                        beacon.update(queue_depth=len(ready) + len(delayed))
                        beacon.maybe_write()
                    elif delayed:
                        time.sleep(
                            max(0.0, min(t for t, _, _ in delayed) - now)
                        )
                    continue

                # Keep the pool full: at most `jobs` outstanding so a task's
                # deadline starts roughly when it starts executing.
                while ready and len(outstanding) < self.jobs:
                    task, attempt = ready.pop(0)
                    beacon.task_started(task.key)
                    future = self._pool.submit(
                        self.fn, task.payload, task.index, attempt
                    )
                    deadline = (
                        now + self.policy.timeout_s
                        if self.policy.timeout_s is not None
                        else None
                    )
                    outstanding[future] = (task, attempt, deadline)

                beacon.update(queue_depth=len(ready) + len(delayed))
                beacon.maybe_write()

                if not outstanding:
                    if delayed:
                        time.sleep(
                            max(0.0, min(t for t, _, _ in delayed) - now)
                        )
                    continue

                done, _ = wait(
                    list(outstanding), timeout=self._POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                pool_died = False
                for future in done:
                    task, attempt, _deadline = outstanding.pop(future)
                    try:
                        value = future.result()
                    except KeyboardInterrupt:
                        raise
                    except BrokenProcessPool as err:
                        # The pool is gone; every outstanding sibling will
                        # fail the same way — handle them all below.
                        retry_or_fail(
                            task, attempt, TransientFault,
                            f"worker process died: {err!r}",
                        )
                        pool_died = True
                    except BaseException as err:
                        retry_or_fail(task, attempt, classify_error(err), repr(err))
                    else:
                        succeed(task, attempt, value)

                now = time.monotonic()
                timed_out = [
                    (future, task, attempt)
                    for future, (task, attempt, deadline) in outstanding.items()
                    if deadline is not None and now > deadline and not future.done()
                ]
                if timed_out:
                    for future, task, attempt in timed_out:
                        budget.timeouts += 1
                        beacon.timeouts += 1
                        obs_log.warning(
                            "supervisor.timeout",
                            task=task.key, index=task.index, attempt=attempt,
                            timeout_s=self.policy.timeout_s,
                        )
                        maybe_dump(
                            "supervisor-timeout",
                            {"task": task.key, "index": task.index,
                             "attempt": attempt,
                             "timeout_s": self.policy.timeout_s},
                        )
                        outstanding.pop(future)
                        retry_or_fail(
                            task, attempt, TransientFault,
                            f"task exceeded {self.policy.timeout_s}s wall-clock timeout",
                        )
                    pool_died = True  # the only way to reclaim a hung worker

                if pool_died:
                    # Innocent co-resident tasks are requeued at the *same*
                    # attempt; only the culprit was charged one above.
                    for future, (task, attempt, _d) in list(outstanding.items()):
                        ready.append((task, attempt))
                        beacon.active.pop(task.key, None)
                    outstanding.clear()
                    self._kill_pool()
                    consecutive_deaths += 1
                    maybe_dump(
                        "worker-death",
                        {"consecutive_deaths": consecutive_deaths,
                         "requeued": len(ready)},
                    )
                    if consecutive_deaths > self.policy.max_pool_respawns:
                        degraded = True
                        budget.degraded_serial = True
                        obs_log.error(
                            "supervisor.degraded_serial",
                            deaths=consecutive_deaths,
                            max_respawns=self.policy.max_pool_respawns,
                        )
                    else:
                        budget.pool_respawns += 1
                        beacon.respawns += 1
                        obs_log.warning(
                            "supervisor.pool_respawn", deaths=consecutive_deaths
                        )
                        self._pool = self._new_pool()
                elif done:
                    consecutive_deaths = 0
        except KeyboardInterrupt:
            self._kill_pool()
            raise
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

        if degraded:
            budget.degraded_serial = True
        beacon.update(queue_depth=0)
        beacon.maybe_write(min_interval=0.0)  # final state, not rate-limited
        return SupervisorReport(results=results, failures=failures, budget=budget)
