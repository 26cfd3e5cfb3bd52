"""The sweep coordinator: rounds, workers, quarantine, and the frontier.

One coordinator process owns the **plan** (which design points each
refinement round prices) and the **verdicts** (which tasks are poison);
workers own nothing but leases.  The coordinator's whole state is derived
from the on-disk queue on every loop iteration, which is what makes
``kill -9`` of *any* process — coordinator included — recoverable:
``--resume`` replays the deterministic planning function over the results
already journaled and falls through every round whose tasks are complete.

Round structure (all deterministic, see :mod:`repro.dse.space`):

1. round 0 prices the corner grid (:meth:`DesignSpace.seed_points`);
2. each later round prices :meth:`DesignSpace.refine` of the current
   Pareto frontier — index midpoints of cost-adjacent frontier pairs plus
   ±1 axis neighbours;
3. a round completes when every one of its tasks has a result **or** is
   quarantined; then the frontier is recomputed over all *complete*
   points and journaled.

Poison verdicts are coordinator-only: a task whose recorded failures plus
lease-generation bumps (ownership transfers — each one is a worker that
died holding the task) reach ``max_task_failures`` is parked in the
replayable quarantine journal; its design point is excluded from the
frontier and listed in the artifact.

Worker supervision mirrors the PR-4 supervisor's policy at queue
granularity: workers that fail ``Process.is_alive()`` respawn with fresh
owner identities (so a zombie's leases fence correctly), capped; past the
cap — or from the start, in a serial sweep — the coordinator drains the
queue itself through the workers' own :func:`~repro.dse.worker.run_pass`
(with process-killing chaos disabled, as the supervisor does).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..obs import log as obs_log
from ..obs.flight import configure_recorder, get_beacon, maybe_dump
from ..resilience.atomic import atomic_write_text
from ..resilience.quarantine import QuarantineFile, QuarantineRecord
from .chaos import ChaosPlan
from .evaluate import workload_layers
from .frontier import (
    FrontierJournal,
    FrontierPoint,
    aggregate_point,
    pareto_frontier,
    render_artifact,
    write_artifact,
)
from .queue import Task, WorkQueue
from .space import PRESETS, DesignPoint, DesignSpace
from .worker import _evaluate, run_pass, worker_entry

__all__ = ["SWEEP_SCHEMA", "SweepConfig", "run_sweep", "sweep_status", "replay_quarantine"]

SWEEP_SCHEMA = 1

#: Coordinator poll interval while waiting on a round.
_POLL_S = 0.1
#: Respawns allowed per worker slot before degrading to serial.
_RESPAWNS_PER_SLOT = 4
#: The owner id the coordinator claims tasks and heartbeats under.
_COORDINATOR = "coordinator"


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Everything one ``repro dse sweep`` invocation needs."""

    out: str
    preset: str = "quick"
    workloads: Tuple[str, ...] = ("ResNet@8", "AlexNet@8")
    quick: bool = False
    jobs: int = 1
    rounds: int = 3
    lease_ttl_s: float = 30.0
    max_task_failures: int = 3
    inject_faults: Optional[str] = None
    store: Optional[str] = None
    status_file: Optional[str] = None
    resume: bool = False

    def space(self) -> DesignSpace:
        try:
            return PRESETS[self.preset]
        except KeyError:
            raise ConfigError(
                f"unknown design-space preset {self.preset!r} "
                f"(expected one of {', '.join(sorted(PRESETS))})",
                field="preset", value=self.preset,
            ) from None

    def validate(self) -> None:
        self.space()
        if self.rounds < 1:
            raise ConfigError(
                "rounds must be >= 1", field="rounds", value=self.rounds
            )
        if self.jobs < 1:
            raise ConfigError(
                "jobs must be >= 1", field="jobs", value=self.jobs
            )
        if self.lease_ttl_s <= 0:
            raise ConfigError(
                "lease TTL must be positive",
                field="lease_ttl_s", value=self.lease_ttl_s,
            )
        if self.max_task_failures < 2:
            # A single crash (one lease transfer) must never quarantine a
            # task, or chaos campaigns would change the frontier.
            raise ConfigError(
                "max task failures must be >= 2",
                field="max_task_failures", value=self.max_task_failures,
            )
        for token in self.workloads:
            workload_layers(token)  # validates name and batch eagerly
        if self.inject_faults:
            ChaosPlan.parse(self.inject_faults)

    # The sweep's *identity* — the fields that define which results and
    # frontier it produces.  ``--resume`` must match these exactly.
    def identity_doc(self) -> Dict[str, Any]:
        return {
            "schema": SWEEP_SCHEMA,
            "preset": self.preset,
            "space": self.space().to_doc(),
            "workloads": sorted(self.workloads),
            "quick": bool(self.quick),
            "rounds": self.rounds,
        }


def _task_id(point: DesignPoint, workload: str) -> str:
    return f"{point.point_id}/{workload}"


def _point_tasks(
    point: DesignPoint, workloads: Sequence[str], quick: bool
) -> List[Task]:
    return [
        Task(
            task_id=_task_id(point, workload),
            payload={
                "point": point.to_doc(),
                "workload": workload,
                "quick": bool(quick),
            },
        )
        for workload in sorted(workloads)
    ]


class _WorkerPool:
    """Spawn/monitor/respawn the worker subprocesses (``--jobs`` > 1)."""

    def __init__(
        self,
        root: pathlib.Path,
        jobs: int,
        lease_ttl_s: float,
        chaos: Optional[ChaosPlan],
        store_dir: Optional[str],
        max_failures: int,
    ) -> None:
        import multiprocessing

        self._mp = multiprocessing.get_context()
        self.root = root
        self.jobs = jobs
        self.lease_ttl_s = lease_ttl_s
        self.chaos_doc = chaos.to_doc() if chaos else None
        self.store_dir = store_dir
        self.max_failures = max_failures
        self.procs: List[Tuple[Any, str]] = []  # (process, worker_id)
        self.incarnation = 0
        self.respawns = 0
        self.degraded = False

    def _spawn_one(self, slot: int) -> None:
        self.incarnation += 1
        worker_id = f"w{slot}.{self.incarnation}"
        proc = self._mp.Process(
            target=worker_entry,
            args=(
                str(self.root), worker_id, self.lease_ttl_s,
                self.chaos_doc, self.store_dir, self.max_failures,
            ),
            daemon=True,
        )
        proc.start()
        if slot < len(self.procs):
            self.procs[slot] = (proc, worker_id)
        else:
            self.procs.append((proc, worker_id))

    def start(self) -> None:
        for slot in range(self.jobs):
            self._spawn_one(slot)

    def alive(self) -> int:
        return sum(1 for proc, _ in self.procs if proc.is_alive())

    def reap_and_respawn(self) -> None:
        """Respawn dead slots with fresh identities; degrade past the cap."""
        if self.degraded:
            return
        for slot, (proc, worker_id) in enumerate(self.procs):
            if proc.is_alive():
                continue
            proc.join(timeout=0)
            if self.respawns >= self.jobs * _RESPAWNS_PER_SLOT:
                self.degraded = True
                obs_log.error(
                    "dse.pool.degraded",
                    respawns=self.respawns, jobs=self.jobs,
                )
                maybe_dump(
                    "dse-pool-degraded",
                    {"respawns": self.respawns, "jobs": self.jobs},
                )
                return
            self.respawns += 1
            obs_log.warning(
                "dse.pool.respawn",
                slot=slot, died=worker_id, exitcode=proc.exitcode,
                respawns=self.respawns,
            )
            self._spawn_one(slot)

    def stop(self, queue: WorkQueue, join_timeout_s: float = 5.0) -> None:
        queue.request_stop()
        for proc, _ in self.procs:
            proc.join(timeout=join_timeout_s)
        for proc, worker_id in self.procs:
            if proc.is_alive():  # wedged (e.g. chaos hang) — force it down
                obs_log.warning("dse.pool.terminate", worker=worker_id)
                proc.terminate()
                proc.join(timeout=2.0)


def _init_sweep_dir(cfg: SweepConfig, root: pathlib.Path) -> None:
    sweep_path = root / "sweep.json"
    identity = cfg.identity_doc()
    if sweep_path.exists():
        try:
            existing = json.loads(sweep_path.read_text())
        except (OSError, ValueError) as err:
            raise ConfigError(
                f"unreadable sweep.json in {root} ({err}); move it aside "
                "or start a fresh --out directory",
                field="out", value=str(root),
            ) from None
        if not cfg.resume:
            raise ConfigError(
                f"{root} already holds a sweep; pass --resume to continue "
                "it or choose a fresh --out directory",
                field="out", value=str(root),
            )
        if existing != identity:
            raise ConfigError(
                "--resume sweep identity mismatch: the directory was "
                "created with different space/workloads/rounds settings",
                field="out", value=str(root),
            )
    else:
        atomic_write_text(
            sweep_path, json.dumps(identity, sort_keys=True, indent=1) + "\n"
        )


def _aggregate_complete(
    seen: Dict[str, DesignPoint],
    workloads: Sequence[str],
    results: Dict[str, Dict[str, Any]],
    parked: Sequence[str],
) -> Tuple[List[FrontierPoint], List[str]]:
    """Frontier entries for every fully-evaluated point, plus the point ids
    excluded because one of their tasks was quarantined."""
    parked_set = set(parked)
    complete: List[FrontierPoint] = []
    excluded: List[str] = []
    for point_id in sorted(seen):
        point = seen[point_id]
        task_ids = [_task_id(point, w) for w in sorted(workloads)]
        if any(tid in parked_set for tid in task_ids):
            excluded.append(point_id)
            continue
        if all(tid in results for tid in task_ids):
            complete.append(
                aggregate_point(point, [results[tid] for tid in task_ids])
            )
    return complete, excluded


def run_sweep(cfg: SweepConfig) -> Dict[str, Any]:
    """Drive the whole sweep; returns the summary the CLI prints."""
    cfg.validate()
    space = cfg.space()
    root = pathlib.Path(cfg.out)
    queue = WorkQueue(root)
    queue.ensure_dirs()
    _init_sweep_dir(cfg, root)
    queue.clear_stop()
    configure_recorder(run_dir=str(root), install_signal=False)
    beacon = get_beacon()
    quarantine = QuarantineFile(root / "quarantine.jsonl")
    journal = FrontierJournal(root / "frontier.jsonl")
    journaled_rounds = {rec["round"] for rec in journal.load()}

    chaos: Optional[ChaosPlan] = None
    if cfg.inject_faults:
        chaos = dataclasses.replace(
            ChaosPlan.parse(cfg.inject_faults),
            hang_s=max(cfg.lease_ttl_s * 2.5, 1.0),
            coordinator_pid=os.getpid(),
        )

    if cfg.store:
        from ..store import attach

        attach(cfg.store)

    pool: Optional[_WorkerPool] = None
    if cfg.jobs > 1:
        pool = _WorkerPool(
            root, cfg.jobs, cfg.lease_ttl_s, chaos, cfg.store,
            cfg.max_task_failures,
        )
        pool.start()

    seen: Dict[str, DesignPoint] = {}
    frontier: List[FrontierPoint] = []
    started = time.time()
    done_at_start = len(queue.load_results())
    coordinator_done = 0
    try:
        for round_index in range(cfg.rounds):
            if round_index == 0:
                candidates = space.seed_points()
            else:
                candidates = space.refine(
                    [fp.point for fp in frontier], seen.values()
                )
            if not candidates and round_index > 0:
                # Refinement converged — the round still journals (same
                # frontier again), keeping the round ledger dense.
                obs_log.info(
                    "dse.round.converged", round=round_index,
                    points=len(seen),
                )
            for point in candidates:
                seen[point.point_id] = point
            _enqueue_round(queue, candidates, cfg)
            expected = [
                _task_id(p, w)
                for p in seen.values()
                for w in sorted(cfg.workloads)
            ]
            coordinator_done = _wait_for_round(
                cfg, queue, quarantine, chaos, expected, pool, beacon,
                round_index, started, done_at_start, coordinator_done,
            )
            results = queue.load_results()
            parked = sorted(quarantine.load())
            complete, _excluded = _aggregate_complete(
                seen, cfg.workloads, results, parked
            )
            frontier = pareto_frontier(complete)
            if round_index not in journaled_rounds:
                journal.append_round(round_index, frontier)
                journaled_rounds.add(round_index)
            obs_log.info(
                "dse.round.done",
                round=round_index, points=len(seen),
                frontier=len(frontier), quarantined=len(parked),
            )
    finally:
        if pool is not None:
            pool.stop(queue)
    queue.heartbeat(_COORDINATOR, state="stopped", done=coordinator_done)

    results = queue.load_results()
    parked = sorted(quarantine.load())
    complete, excluded = _aggregate_complete(
        seen, cfg.workloads, results, parked
    )
    frontier = pareto_frontier(complete)
    artifact = render_artifact(
        space, cfg.workloads, cfg.quick, cfg.rounds,
        complete, frontier, parked,
    )
    artifact_path = write_artifact(root / "frontier.json", artifact)
    _write_metrics(cfg, root, queue, quarantine, len(seen), len(frontier))
    beacon.update(
        phase="done",
        dse_round=cfg.rounds,
        dse_points=len(seen),
        dse_frontier=len(frontier),
        dse_quarantined=len(parked),
    )
    beacon.maybe_write(min_interval=0.0)
    return {
        "out": str(root),
        "artifact": str(artifact_path),
        "points_evaluated": len(complete),
        "points_seen": len(seen),
        "points_excluded": excluded,
        "frontier": [fp.point_id for fp in frontier],
        "quarantined": parked,
        "rounds": cfg.rounds,
        "degraded": bool(pool and pool.degraded),
    }


def _enqueue_round(
    queue: WorkQueue, candidates: Sequence[DesignPoint], cfg: SweepConfig
) -> None:
    known = queue.load_tasks()
    for point in candidates:
        for task in _point_tasks(point, cfg.workloads, cfg.quick):
            if task.task_id not in known:
                queue.add_task(task)


def _wait_for_round(
    cfg: SweepConfig,
    queue: WorkQueue,
    quarantine: QuarantineFile,
    chaos: Optional[ChaosPlan],
    expected: Sequence[str],
    pool: Optional[_WorkerPool],
    beacon,
    round_index: int,
    started: float,
    done_at_start: int,
    done: int,
) -> int:
    """Block until every expected task has a result or is quarantined.

    While waiting the coordinator is the health plane: it respawns workers
    no longer alive, parks poison tasks, and publishes progress/ETA to the
    beacon.  In serial mode (or after pool degradation) it also drains the
    queue itself, one :func:`run_pass` per loop iteration.  Returns
    ``done`` (the coordinator's completions so far) plus this round's.
    """
    while True:
        claimed = 0
        if pool is None or pool.degraded:
            # Process-killing chaos is fenced off by coordinator_pid
            # inside ChaosPlan.apply.
            _, claimed, completed = run_pass(
                queue, _COORDINATOR, cfg.lease_ttl_s, cfg.max_task_failures,
                chaos, done=done,
            )
            done += completed
        results = queue.load_results()
        parked = quarantine.load()
        pending = [
            tid for tid in expected
            if tid not in results and tid not in parked
        ]
        _publish_progress(
            beacon, round_index, expected, results, parked, pool,
            started, done_at_start,
        )
        if not pending:
            return done
        _park_poison(cfg, queue, quarantine, pending)
        if pool is not None:
            pool.reap_and_respawn()
        if not claimed:
            time.sleep(_POLL_S)


def _park_poison(
    cfg: SweepConfig,
    queue: WorkQueue,
    quarantine: QuarantineFile,
    pending: Sequence[str],
) -> None:
    """The coordinator-only poison verdict (see module docstring)."""
    failures = queue.load_failures()
    tasks = None
    for task_id in pending:
        fails = failures.get(task_id, [])
        lease = queue.lease_of(task_id)
        transfers = max(0, (lease.generation - 1) if lease else 0)
        effective = len(fails) + transfers
        if effective < cfg.max_task_failures:
            continue
        if lease is not None and not lease.expired():
            continue  # actively being worked — give the attempt a chance
        if tasks is None:
            tasks = queue.load_tasks()
        task = tasks.get(task_id)
        quarantine.park(
            QuarantineRecord(
                task_id=task_id,
                payload=dict(task.payload) if task else {},
                reason=(
                    f"failed {len(fails)} attempt(s), "
                    f"{transfers} lease transfer(s)"
                ),
                failures=[
                    {
                        "attempt": f.get("attempt"),
                        "kind": f.get("kind"),
                        "error": f.get("error"),
                    }
                    for f in fails
                ],
            )
        )
        maybe_dump(
            "dse-quarantine",
            {"task": task_id, "failures": len(fails), "transfers": transfers},
        )


def _publish_progress(
    beacon,
    round_index: int,
    expected: Sequence[str],
    results: Dict[str, Any],
    parked: Dict[str, Any],
    pool: Optional[_WorkerPool],
    started: float,
    done_at_start: int,
) -> None:
    done = sum(1 for tid in expected if tid in results)
    total = len(expected)
    elapsed = max(time.time() - started, 1e-9)
    rate = max(len(results) - done_at_start, 0) / elapsed
    remaining = total - done - sum(1 for t in expected if t in parked)
    eta_s = remaining / rate if rate > 0 else None
    fields = {
        "phase": f"round {round_index}",
        "dse_round": round_index,
        "dse_tasks_total": total,
        "dse_tasks_done": done,
        "dse_quarantined": len(parked),
        "dse_rate_per_s": round(rate, 3),
    }
    if eta_s is not None:
        fields["dse_eta_s"] = round(eta_s, 1)
    if pool is not None:
        fields["dse_workers_alive"] = pool.alive()
        fields["dse_respawns"] = pool.respawns
        fields["dse_degraded"] = pool.degraded
    beacon.update(**fields)
    beacon.maybe_write()


def _write_metrics(
    cfg: SweepConfig,
    root: pathlib.Path,
    queue: WorkQueue,
    quarantine: QuarantineFile,
    points_seen: int,
    frontier_size: int,
) -> None:
    from ..obs.prom import write_prometheus
    from ..trace.metrics import MetricsRegistry

    registry = MetricsRegistry()
    failures = queue.load_failures()
    registry.inc_counter("repro_dse_tasks_total", len(queue.load_tasks()))
    registry.inc_counter("repro_dse_results_total", len(queue.load_results()))
    registry.inc_counter(
        "repro_dse_failures_total",
        sum(len(f) for f in failures.values()),
    )
    registry.inc_counter(
        "repro_dse_quarantined_total", len(quarantine.load())
    )
    registry.set_gauge("repro_dse_points_seen", points_seen)
    registry.set_gauge("repro_dse_frontier_size", frontier_size)
    registry.set_gauge("repro_dse_rounds", cfg.rounds)
    write_prometheus(
        root / "metrics.prom", registry, labels={"run_id": root.name}
    )


def sweep_status(out: str) -> Dict[str, Any]:
    """The ``repro dse status`` snapshot, read purely from disk."""
    root = pathlib.Path(out)
    queue = WorkQueue(root)
    tasks = queue.load_tasks()
    results = queue.load_results()
    failures = queue.load_failures()
    parked = QuarantineFile(root / "quarantine.jsonl").load()
    journal = FrontierJournal(root / "frontier.jsonl").load()
    heartbeats = queue.load_heartbeats()
    now = time.time()
    workers = {
        wid: {
            "state": beat.get("state"),
            "task": beat.get("task"),
            "done": beat.get("done"),
            "age_s": round(now - float(beat.get("time", now)), 1),
        }
        for wid, beat in heartbeats.items()
    }
    return {
        "out": str(root),
        "tasks": len(tasks),
        "results": len(results),
        "pending": len(
            [t for t in tasks if t not in results and t not in parked]
        ),
        "failures": sum(len(f) for f in failures.values()),
        "quarantined": sorted(parked),
        "rounds_journaled": [rec["round"] for rec in journal],
        "last_frontier": journal[-1]["frontier"] if journal else [],
        "workers": workers,
        "artifact": (
            str(root / "frontier.json")
            if (root / "frontier.json").exists()
            else None
        ),
    }


def replay_quarantine(out: str) -> List[Dict[str, Any]]:
    """Re-run every quarantined task serially in this process and report.

    A task that now passes had environmental failures (its result is
    journaled so the next ``--resume`` folds the point back in); one that
    still fails is true poison — a model bug or a genuinely hostile
    configuration worth keeping parked.
    """
    root = pathlib.Path(out)
    queue = WorkQueue(root)
    parked = QuarantineFile(root / "quarantine.jsonl").load()
    report: List[Dict[str, Any]] = []
    for task_id in sorted(parked):
        record = parked[task_id]
        try:
            payload = _evaluate(record.payload)
        except Exception as err:
            report.append(
                {
                    "task_id": task_id,
                    "status": "still-failing",
                    "error": str(err),
                    "reason": record.reason,
                }
            )
            continue
        queue.complete(task_id, payload)
        report.append(
            {"task_id": task_id, "status": "pass", "reason": record.reason}
        )
    return report
