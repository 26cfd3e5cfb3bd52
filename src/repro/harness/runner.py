"""Experiment runner: regenerate any (or every) table/figure of the paper.

Usage::

    python -m repro.harness.runner            # run everything
    python -m repro.harness.runner fig4 fig13 # run selected experiments
    python -m repro.harness.runner --quick    # reduced workloads (CI-sized)
    python -m repro.harness.runner --jobs 4   # fan experiments out over processes

``python -m repro.harness.runner ARGS`` is ``repro run ARGS``: one parser
(:func:`add_run_args` plus the root CLI's observability flags) and one
code path (:func:`run`).

Each experiment module exposes ``run(quick=False) -> ExperimentResult``; the
registry below is the complete per-experiment index from DESIGN.md.

Every ``repro run`` executes its experiments through the
:class:`~repro.resilience.supervisor.Supervisor`: in this process with
``--jobs 1`` (the default), over N worker processes with ``--jobs N``.
Results are collected and printed in submission order, so the report is
byte-identical either way (each experiment is deterministic and
self-contained).

``--trace [PATH]`` enables the :mod:`repro.trace` instrumentation for the
run: a Chrome ``trace_event`` JSON lands at PATH (default ``trace.json``)
and a text summary — span timings, counters, per-source cycle accounting
with the full invariant audit — prints after the reports.  Under ``--jobs``
each worker ships its events and metric records home and they are merged by
(pid, experiment) track.

Run-level observability (see :mod:`repro.obs`): ``--log-level``/
``--log-file`` route the harness's structured events to stderr and/or a
JSONL file, ``--quiet`` suppresses report rendering while artifacts keep
being written, ``--profile`` prints a per-experiment wall/CPU/allocation
hotspot table, and any of ``--log-file``/``--profile``/``--manifest``
additionally writes ``results/<run_id>/manifest.json`` (provenance +
resource costs) and ``results/<run_id>/metrics.prom`` (Prometheus text
exposition).  With all of these off, stdout and every artifact are
byte-identical to the pre-observability harness, and the runner exits
nonzero when an experiment raises or the cycle-accounting audit fails.

Resilience (see :mod:`repro.resilience`): ``--checkpoint`` journals each
completed experiment to ``results/<run_id>/checkpoint.jsonl`` and
``--resume RUN_ID`` skips the journaled work of a crashed sweep (the
reconstructed report is bit-identical; the hit count prints to stderr).
Every run is *supervised*: ``--max-retries`` retries transient faults
with seeded exponential backoff, an experiment that still fails is
reported without stopping the others (the run then renders nothing and
exits 1), and under ``--jobs N`` ``--task-timeout`` bounds each
experiment's wall clock and crashed pools are respawned (degrading to
serial execution if they keep dying).  ``--inject-faults SPEC``
deterministically manufactures crashes/hangs/flaky failures plus DRAM/
SRAM misbehaviour so every recovery path is testable.  ``Ctrl-C``
cancels pending work, flushes the journal and exits 130; ``SIGTERM``
(what init systems, container runtimes and batch schedulers send) takes
the same graceful path — journal flushed, resume hint printed — and
exits 143.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import AuditFault, PermanentFault
from ..obs import log as obs_log
from ..perf.cache import SIM_CACHE, CacheStats

from .experiments import (
    ablations,
    batch_sweep,
    design_space_plus,
    extensions,
    sparsity,
    fig2,
    fig4,
    fig7,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    table1,
    table2,
)
from .report import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "RunTelemetry",
    "run_experiment",
    "run_many",
    "run_many_telemetry",
    "run_all",
    "harness_metrics",
    "add_run_args",
    "run",
    "main",
]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig2": fig2.run,
    "fig4": fig4.run,
    "fig7": fig7.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "fig18": fig18.run,
    "ablations": ablations.run,
    "extensions": extensions.run,
    "batch_sweep": batch_sweep.run,
    "sparsity": sparsity.run,
    "design_space_plus": design_space_plus.run,
}


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id (see DESIGN.md's per-experiment index)."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(quick=quick)


def run_many(
    ids: List[str], quick: bool = False, jobs: int = 1
) -> List[ExperimentResult]:
    """Run several experiments, optionally across worker processes.

    Results always come back in the order of ``ids`` regardless of which
    worker finishes first, so downstream rendering/export is deterministic.
    """
    if jobs <= 1:
        return [run_experiment(eid, quick=quick) for eid in ids]
    results, _ = run_many_telemetry(ids, quick=quick, jobs=jobs)
    return results


def run_all(quick: bool = False, jobs: int = 1) -> List[ExperimentResult]:
    return run_many(list(EXPERIMENTS), quick=quick, jobs=jobs)


@dataclasses.dataclass
class RunTelemetry:
    """Everything a run ships back beyond the reports themselves.

    ``cache`` is the *per-run* lookup accounting (counters are zeroed before
    each experiment, so pooled workers' warm stores still count their hits
    honestly); ``events``/``layers``/``kernels`` are empty unless the run
    traced.
    """

    events: list = dataclasses.field(default_factory=list)
    layers: list = dataclasses.field(default_factory=list)
    kernels: list = dataclasses.field(default_factory=list)
    cache: CacheStats = CacheStats(hits=0, misses=0, entries=0)
    #: ``(experiment_id, wall_seconds)`` per experiment — always measured
    #: (two perf_counter reads), feeds the latency histogram exposition.
    timings: list = dataclasses.field(default_factory=list)
    #: :class:`repro.obs.PhaseSample` records; empty unless ``--profile``.
    phases: list = dataclasses.field(default_factory=list)
    #: :func:`repro.audit.snapshot` dict; empty unless ``--audit`` is on.
    audit: dict = dataclasses.field(default_factory=dict)

    @staticmethod
    def _fold_audit(into: dict, part: dict) -> dict:
        if not part:
            return into
        if not into:
            folded = dict(part)
            folded["checks_by_invariant"] = dict(part.get("checks_by_invariant", {}))
            return folded
        into["checks"] = into.get("checks", 0) + part.get("checks", 0)
        into["violations"] = into.get("violations", 0) + part.get("violations", 0)
        by_invariant = into.setdefault("checks_by_invariant", {})
        for invariant, count in part.get("checks_by_invariant", {}).items():
            by_invariant[invariant] = by_invariant.get(invariant, 0) + count
        return into

    @classmethod
    def merge(cls, parts: Iterable["RunTelemetry"]) -> "RunTelemetry":
        """Fold per-experiment telemetry into one run-wide view.

        Each experiment's events are re-tagged onto their own ``tid`` track:
        timestamps restart per experiment (and per worker), so distinct
        tracks are what keeps the merged Chrome trace readable and the
        counter rollups correct.
        """
        merged = cls()
        for index, part in enumerate(parts):
            track = index + 1
            merged.events.extend(
                dataclasses.replace(event, tid=track) for event in part.events
            )
            merged.layers.extend(part.layers)
            merged.kernels.extend(part.kernels)
            merged.cache = merged.cache + part.cache
            merged.timings.extend(part.timings)
            merged.phases.extend(part.phases)
            merged.audit = cls._fold_audit(merged.audit, part.audit)
        return merged


def _run_with_telemetry(
    experiment_id: str,
    quick: bool,
    tracing: bool,
    profiling: bool = False,
    audit_level: str = "off",
    traceparent: Optional[str] = None,
) -> Tuple[ExperimentResult, RunTelemetry]:
    """Run one experiment with per-run cache accounting (and tracing if on).

    Runs in the supervising process (``--jobs 1``) or in a pool worker;
    either way the process-global tracer/registry/cache belong to *this*
    process, so resetting them here is safe and gives each experiment a
    clean window.

    ``traceparent`` (a W3C header string the supervising process mints per
    task when tracing) carries the task's trace context across the process
    boundary; the experiment span adopts it, so every task yields exactly
    one connected span tree in the merged Chrome export.
    """
    if os.environ.get("REPRO_STORE_DIR"):
        # --store exports the directory before workers spawn, so every
        # process (parent or pool) backs its memo cache with the same
        # persistent store.  Guarded on the env var: flagless runs never
        # import repro.store at all.
        from ..store import attach_from_env

        attach_from_env()
    SIM_CACHE.reset_stats()
    obs_log.debug("experiment.start", experiment=experiment_id, quick=quick)
    auditing = audit_level != "off"
    if auditing:
        # Configure in *this* process (pool workers start with audit off) and
        # zero the counters so each experiment reports its own window.
        from ..audit import auditor as audit_mod

        audit_mod.configure(audit_level)
        audit_mod.reset()
    profiler = None
    if profiling:
        from ..obs.profiler import PhaseProfiler

        profiler = PhaseProfiler()

    def execute() -> Tuple[ExperimentResult, float]:
        start = time.perf_counter()
        try:
            if profiler is not None:
                with profiler.phase(experiment_id):
                    result = run_experiment(experiment_id, quick=quick)
            else:
                result = run_experiment(experiment_id, quick=quick)
        except BaseException as err:
            # Post-mortem aid: dump the flight-recorder ring (if one is
            # configured in this process) before the fault propagates.
            from ..obs.flight.recorder import maybe_dump

            maybe_dump(
                "audit-fault" if isinstance(err, AuditFault) else "exception",
                {"experiment": experiment_id, "error": repr(err)},
            )
            raise
        return result, time.perf_counter() - start

    events: list = []
    layers: list = []
    kernels: list = []
    if not tracing:
        result, wall_s = execute()
    else:
        from ..trace import context as trace_context
        from ..trace import metrics as trace_metrics
        from ..trace import tracer as trace

        registry = trace_metrics.get_registry()
        registry.clear()
        trace.get_tracer().clear()
        trace.enable()
        root_ctx = trace_context.TraceContext.from_traceparent(traceparent)
        try:
            with trace_context.activate_root(root_ctx):
                with trace.span(
                    "experiment", cat="harness", experiment=experiment_id
                ):
                    result, wall_s = execute()
            events = trace.drain_events()
            layers, kernels = registry.layers, registry.kernels
        finally:
            trace.disable()
            registry.clear()
    obs_log.info(
        "experiment.done", experiment=experiment_id, wall_s=round(wall_s, 4)
    )
    return result, RunTelemetry(
        events=events,
        layers=layers,
        kernels=kernels,
        cache=SIM_CACHE.stats,
        timings=[(experiment_id, wall_s)],
        phases=list(profiler.samples) if profiler is not None else [],
        audit=audit_mod.snapshot() if auditing else {},
    )


def run_many_telemetry(
    ids: List[str],
    quick: bool = False,
    jobs: int = 1,
    tracing: bool = False,
    profiling: bool = False,
    audit_level: str = "off",
) -> Tuple[List[ExperimentResult], RunTelemetry]:
    """Like :func:`run_many`, but also collect :class:`RunTelemetry`.

    Runs through the :mod:`repro.resilience` supervisor with the default
    policy (no timeout, transient retries on): in this process when
    ``jobs <= 1``, over a worker pool otherwise.  Once every experiment
    has had its attempts, the first one that still failed raises
    :class:`~repro.errors.PermanentFault`.
    """
    from ..resilience.supervisor import RetryPolicy

    by_id, report = _run_supervised(
        ids, quick=quick, tracing=tracing, profiling=profiling,
        jobs=jobs, policy=RetryPolicy(), audit_level=audit_level,
    )
    if report.failures:
        first = report.failures[0]
        raise PermanentFault(
            f"experiment {first.key} failed [{first.fault}] after "
            f"{first.attempts} attempt(s): {first.message}"
        )
    pairs = [by_id[eid] for eid in ids]
    results = [result for result, _ in pairs]
    telemetry = RunTelemetry.merge(part for _, part in pairs)
    return results, telemetry


def _supervised_task(
    payload: Tuple,
    index: int,
    attempt: int,
) -> Tuple[ExperimentResult, RunTelemetry]:
    """One supervised unit of work (runs in a pool worker, or in the
    supervising process).

    ``payload`` is the tuple :func:`_run_supervised` builds:
    ``(experiment_id, quick, tracing, profiling, fault_spec, audit_level,
    supervisor_pid, traceparent)``.  ``traceparent`` is the task's W3C
    trace context (``None`` unless tracing), minted in the supervising
    process so a ``--jobs N`` trace reassembles into one connected tree
    per task.  Process-level injected faults (crash/hang) only fire when
    this is *not* the supervising process, so a ``--jobs 1`` run or the
    degraded-serial fallback can never be taken down by its own injection.
    """
    (
        eid, quick, tracing, profiling, fault_spec, audit_level,
        supervisor_pid, traceparent,
    ) = payload
    if fault_spec is None:
        return _run_with_telemetry(
            eid, quick, tracing, profiling, audit_level, traceparent
        )
    from ..resilience import faults

    plan = faults.FaultPlan.parse(fault_spec)
    if os.getpid() != supervisor_pid:
        plan.maybe_process_fault(index, attempt)
    plan.maybe_raise_fault(index, attempt)
    faults.activate(plan)
    try:
        return _run_with_telemetry(
            eid, quick, tracing, profiling, audit_level, traceparent
        )
    finally:
        faults.deactivate()


def _run_supervised(
    ids: List[str],
    quick: bool,
    tracing: bool,
    profiling: bool,
    jobs: int,
    policy: Any,
    fault_spec: Optional[str] = None,
    audit_level: str = "off",
    on_result: Optional[Callable[[Any, Any], None]] = None,
):
    """Run ``ids`` under the resilience supervisor (in this process when
    ``jobs <= 1``, over a worker pool otherwise).

    Returns ``({experiment_id: (result, telemetry)}, SupervisorReport)``;
    results cover every task that succeeded (possibly after retries), the
    report carries the failures and the error budget.
    """
    from ..resilience.supervisor import Supervisor, TaskSpec
    from ..trace import context as trace_context

    def _task_traceparent() -> Optional[str]:
        # One root context per task, minted here in the supervising process;
        # the worker's experiment span adopts it (same ids on every retry,
        # so a retried task still forms a single tree).
        if not tracing:
            return None
        return trace_context.TraceContext.new().to_traceparent()

    tasks = [
        TaskSpec(
            index=i, key=eid,
            payload=(
                eid, quick, tracing, profiling, fault_spec, audit_level,
                os.getpid(), _task_traceparent(),
            ),
        )
        for i, eid in enumerate(ids)
    ]
    supervisor = Supervisor(
        _supervised_task, jobs=jobs, policy=policy, on_result=on_result
    )
    report = supervisor.run(tasks)
    by_id = {tasks[index].key: value for index, value in report.results.items()}
    return by_id, report


def _execute(
    args: argparse.Namespace,
    ids: List[str],
    tracing: bool,
    run_id: str,
    plan: Optional[Any],
):
    """Run ``ids`` for ``repro run``: the one execution path of every run.

    Every experiment goes through :func:`_run_supervised` under the
    :class:`~repro.resilience.supervisor.RetryPolicy` the flags describe
    (with none set, the default policy).  ``--checkpoint``/``--resume``
    add the journal: resumed hits are skipped, each completed experiment
    is appended as it finishes.

    Returns ``(results, telemetry, task_failures, budget, checkpoint_info)``.
    ``results`` is ``None`` when any experiment ultimately failed —
    ``task_failures`` then carries one :class:`~repro.resilience.supervisor.
    TaskFailure` per casualty, while ``telemetry`` still covers every
    experiment that finished.  ``checkpoint_info`` is the manifest block
    (path / hits / appended / corrupt_skipped) or ``None`` when the run is
    not journaling.  ``KeyboardInterrupt`` propagates to the caller with
    every already-journaled record safely fsynced.
    """
    from ..resilience.supervisor import RetryPolicy

    checkpointing = args.checkpoint or args.resume is not None
    policy = RetryPolicy(
        max_retries=args.max_retries if args.max_retries is not None else 2,
        timeout_s=args.task_timeout,
        seed=plan.seed if plan is not None else 0,
    )
    completed: Dict[str, ExperimentResult] = {}
    hits = 0
    corrupt_skipped = 0
    journal = None
    on_result = None
    if checkpointing:
        from ..resilience.checkpoint import (
            CheckpointJournal,
            journal_path,
            load_resume_state,
            result_to_record,
            task_fingerprint,
        )

        jpath = journal_path(args.results_dir, run_id)
        fingerprints = {eid: task_fingerprint(eid, args.quick) for eid in ids}
        if args.resume is not None:
            state = load_resume_state(jpath)
            corrupt_skipped = state.corrupt
            for eid in ids:
                restored = state.hit(eid, fingerprints[eid])
                if restored is not None:
                    completed[eid] = restored
            hits = len(completed)
            line = (
                f"resume {run_id}: {hits} checkpoint hit(s), "
                f"{len(ids) - hits} experiment(s) to run"
            )
            if corrupt_skipped:
                line += f", {corrupt_skipped} corrupt record(s) skipped"
            print(line, file=sys.stderr)
        journal = CheckpointJournal(jpath)

        def on_result(task, value):
            corrupt = plan is not None and plan.should_corrupt_checkpoint(
                task.index
            )
            journal.append(
                result_to_record(task.key, fingerprints[task.key], value[0]),
                corrupt=corrupt,
            )

    pending = [eid for eid in ids if eid not in completed]
    obs_log.info(
        "run.resilience",
        run_id=run_id, checkpoint=checkpointing, resume=args.resume,
        hits=hits, pending=len(pending), timeout_s=policy.timeout_s,
        max_retries=policy.max_retries,
        faults=plan.spec if plan is not None else None,
    )
    by_id, report = _run_supervised(
        pending, quick=args.quick, tracing=tracing, profiling=args.profile,
        jobs=args.jobs, policy=policy, fault_spec=args.inject_faults,
        audit_level=args.audit, on_result=on_result,
    )
    completed.update((eid, result) for eid, (result, _) in by_id.items())
    telemetry = RunTelemetry.merge(
        by_id[eid][1] for eid in pending if eid in by_id
    )
    checkpoint_info = None
    if journal is not None:
        checkpoint_info = {
            "path": str(jpath),
            "hits": hits,
            "appended": journal.appended,
            "corrupt_skipped": corrupt_skipped,
        }
    results = None if report.failures else [completed[eid] for eid in ids]
    return results, telemetry, report.failures, report.budget, checkpoint_info


def harness_metrics(
    telemetry: RunTelemetry, wall_seconds: float, failures: int = 0
):
    """The harness-level metric snapshot a run exposes (see repro.obs.prom).

    Counters/gauges/histograms on a fresh :class:`~repro.trace.metrics.
    MetricsRegistry`: experiments run, cache hits/misses and hit rate,
    simulated layers per second, and the per-experiment latency
    distribution.  Traced layer records are *not* merged here — the caller
    decides whether to attach them (their merge re-runs the audit).
    """
    from ..trace.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.inc_counter("repro_experiments_total", len(telemetry.timings))
    registry.inc_counter("repro_experiment_failures_total", failures)
    registry.inc_counter("repro_sim_cache_hits_total", telemetry.cache.hits)
    registry.inc_counter("repro_sim_cache_misses_total", telemetry.cache.misses)
    if telemetry.cache.persistent_hits or os.environ.get("REPRO_STORE_DIR"):
        # Store series appear only on store-backed runs, keeping flagless
        # metrics.prom files byte-identical to the pre-store harness.
        registry.inc_counter(
            "repro_sim_cache_persistent_hits_total",
            telemetry.cache.persistent_hits,
        )
    lookups = telemetry.cache.hits + telemetry.cache.misses
    registry.inc_counter("repro_layers_simulated_total", lookups)
    registry.set_gauge("repro_sim_cache_entries", telemetry.cache.entries)
    registry.set_gauge("repro_sim_cache_hit_rate", telemetry.cache.hit_rate)
    registry.set_gauge("repro_run_wall_seconds", wall_seconds)
    if wall_seconds > 0:
        registry.set_gauge("repro_layers_per_second", lookups / wall_seconds)
    for _, wall_s in telemetry.timings:
        registry.observe("repro_experiment_seconds", wall_s)
    if telemetry.audit:  # only audited runs expose audit series
        registry.inc_counter(
            "repro_audit_checks_total", telemetry.audit.get("checks", 0)
        )
        registry.inc_counter(
            "repro_audit_violations_total", telemetry.audit.get("violations", 0)
        )
    return registry


class _Terminated(KeyboardInterrupt):
    """SIGTERM, routed down the Ctrl-C path.

    Subclassing :class:`KeyboardInterrupt` means every cancellation point
    the interrupt path already has — pool teardown, journal flush, the
    resume hint — handles SIGTERM identically; only the exit code (143,
    the shell convention for death-by-SIGTERM) differs.
    """


def _install_sigterm_handler() -> None:
    def _on_sigterm(signum, frame):
        raise _Terminated()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use); SIGTERM stays default


def add_run_args(parser: argparse.ArgumentParser) -> None:
    """Install ``repro run``'s options on ``parser``.

    The observability options (``--log-level``/``--log-file``/``--quiet``/
    ``--manifest``) come from the root CLI's shared parent parser.
    """
    parser.add_argument("ids", nargs="*", metavar="experiment",
                        help="experiment ids (default: all)")
    parser.add_argument("--all", action="store_true", dest="run_all",
                        help="run every experiment (same as passing no ids)")
    parser.add_argument("--quick", action="store_true", help="reduced workloads")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for running experiments (default: serial)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print per-run simulation-cache hit/miss statistics "
        "(aggregated across workers under --jobs)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="back the simulation cache with a persistent on-disk result "
        "store at DIR (content-addressed, shared across processes and "
        "runs; see repro.store). When REPRO_STORE_DIR is also set, the "
        "two must name the same directory — a conflict is a config error",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="PATH",
        help="collect cycle-accounting traces; writes Chrome trace JSON to "
        "PATH (default trace.json) and prints a summary",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="also write <id>.json and per-table CSVs into this directory",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each experiment (wall/CPU/tracemalloc) and print a "
        "hotspot table",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="directory that receives <run_id>/ observability artifacts "
        "(default: results)",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="journal each completed experiment to "
        "results/<run_id>/checkpoint.jsonl (crash-safe, fsync per record)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a checkpointed run: skip journaled experiments whose "
        "config fingerprint still matches, run the rest, keep journaling",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="RUN_ID",
        help="pin the run id (default: generated); --resume implies it",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock limit under --jobs; a task over "
        "budget is killed and retried as a transient fault",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries beyond the first attempt for transient faults "
        "(worker crashes, timeouts; default: 2)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'seed=7,crash@1,flaky@2:2,dram-drop=0.01' "
        "(see repro.resilience.faults.FaultPlan.parse)",
    )
    parser.add_argument(
        "--audit",
        choices=("off", "cheap", "full"),
        default="off",
        help="runtime invariant auditing: 'cheap' checks conservation laws "
        "in-line, 'full' adds per-layer cross-model differential checks; "
        "a violation raises AuditFault and fails the run (default: off)",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="keep a flight-recorder ring of recent spans/log events; "
        "dumped to results/<run_id>/flightrec-*.json on AuditFault, "
        "worker death/timeout, unhandled exceptions, or SIGUSR1",
    )
    parser.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help="mirror live sweep progress (queue depth, ETA, cache hit "
        "rates) to PATH for 'repro top --status-file PATH'",
    )
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    """Run ``repro run`` from its parsed options; returns the exit code."""
    ids = args.ids or list(EXPERIMENTS)
    for eid in ids:
        if eid not in EXPERIMENTS:  # fail before spawning any worker
            raise KeyError(
                f"unknown experiment {eid!r}; known: {sorted(EXPERIMENTS)}"
            )
    for bad, message in (  # like a bad --inject-faults spec: exit 2, no work
        (args.jobs < 1, f"--jobs must be at least 1, got {args.jobs}"),
        (args.task_timeout is not None and not args.task_timeout > 0,
         f"--task-timeout must be positive, got {args.task_timeout}"),
        (args.max_retries is not None and args.max_retries < 0,
         f"--max-retries must be at least 0, got {args.max_retries}"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 2
    tracing = args.trace is not None
    _install_sigterm_handler()
    if args.store:
        # Export before any worker spawns; _run_with_telemetry attaches in
        # whichever process it runs in (parent and every pool worker).
        # --store and an inherited REPRO_STORE_DIR must agree: silently
        # preferring one would leave a store that never sees results.
        from ..errors import ConfigError
        from ..store import resolve_store_dir

        try:
            store_dir = resolve_store_dir(args.store)
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        os.environ["REPRO_STORE_DIR"] = store_dir
    plan = None
    if args.inject_faults is not None:
        from ..resilience.faults import FaultPlan

        try:  # validate the spec in the parent, before any work starts
            plan = FaultPlan.parse(args.inject_faults)
        except ValueError as err:
            print(f"error: bad --inject-faults spec: {err}", file=sys.stderr)
            return 2
    obs_active = args.log_file is not None or args.profile or args.manifest
    from ..obs.manifest import new_run_id, write_manifest

    run_id = args.resume or args.run_id or new_run_id()
    obs_log.configure(
        level=args.log_level,
        log_file=args.log_file,
        quiet=args.quiet,
        run_id=run_id if obs_active else None,
    )
    from ..obs.flight.beacon import configure_beacon

    configure_beacon(
        role="runner", run_id=run_id, status_path=args.status_file
    )
    if args.flight:
        # Configured after obs_log.configure (which replaces the log state,
        # tee included).  Forked pool workers inherit the hooks, so their
        # dumps land beside the supervisor's, distinguished by pid.
        from ..obs.flight.recorder import configure_recorder

        configure_recorder(run_dir=os.path.join(args.results_dir, run_id))
    run_ctx = None
    if obs_active:  # provenance collection (git, versions) only when observed
        from ..obs.manifest import RunContext

        run_ctx = RunContext(
            tool="repro.harness.runner",
            results_dir=args.results_dir,
            run_id=run_id,
            args={
                "experiments": ids,
                "quick": args.quick,
                "jobs": args.jobs,
                "trace": args.trace,
                "profile": args.profile,
                "quiet": args.quiet,
                "export_dir": args.export_dir,
                "checkpoint": args.checkpoint,
                "resume": args.resume,
                "task_timeout": args.task_timeout,
                "max_retries": args.max_retries,
                "inject_faults": args.inject_faults,
                # Keyed only when auditing so unaudited manifests keep their
                # pre-audit shape.
                **({"audit": args.audit} if args.audit != "off" else {}),
            },
        )
        run_ctx.__enter__()
    obs_log.info(
        "run.start", experiments=ids, quick=args.quick, jobs=args.jobs,
        tracing=tracing, profiling=args.profile,
    )
    exit_code = 0
    failures = 0
    audit_fault_failures = 0
    results: List[ExperimentResult] = []
    telemetry = RunTelemetry()
    budget = None
    checkpoint_info = None
    try:
        try:
            outcome, telemetry, task_failures, budget, checkpoint_info = (
                _execute(args, ids, tracing, run_id, plan)
            )
            results = outcome or []
            for failure in task_failures:
                exit_code = 1
                failures += 1
                if failure.fault == "AuditFault":
                    audit_fault_failures += 1
                print(
                    f"error: experiment {failure.key} failed "
                    f"[{failure.fault}] after {failure.attempts} "
                    f"attempt(s): {failure.message}",
                    file=sys.stderr,
                )
        except KeyboardInterrupt as interrupt:
            terminated = isinstance(interrupt, _Terminated)
            exit_code = 143 if terminated else 130
            word = "terminated" if terminated else "interrupted"
            obs_log.error("run.terminated" if terminated else "run.interrupted")
            if args.checkpoint or args.resume is not None:
                print(
                    f"{word}: completed work is journaled; "
                    f"rerun with --resume {run_id}",
                    file=sys.stderr,
                )
            else:
                print(word, file=sys.stderr)
        except Exception as err:
            # Experiments' own errors are task failures above; this is the
            # machinery around them (e.g. journal I/O): fail the run loudly.
            failures += 1
            exit_code = 1
            obs_log.error("run.experiment_error", error=repr(err))
            from ..obs.flight.recorder import maybe_dump

            maybe_dump("exception", {"error": repr(err)})
            print(f"error: experiment run failed: {err!r}", file=sys.stderr)
        for result in results:
            obs_log.console(result.render())
            obs_log.console()
        if tracing and exit_code == 0:
            from ..trace.export import render_summary, write_chrome_trace
            from ..trace.metrics import CycleAccountingError, MetricsRegistry

            write_chrome_trace(
                args.trace,
                telemetry.events,
                metadata={"experiments": ids, "quick": args.quick, "jobs": args.jobs},
            )
            try:
                registry = MetricsRegistry()
                registry.merge(telemetry.layers, telemetry.kernels)
                obs_log.console(render_summary(telemetry.events, registry))
            except CycleAccountingError as err:
                exit_code = 1
                obs_log.error("run.audit_error", error=str(err))
                print(f"error: cycle-accounting audit failed: {err}", file=sys.stderr)
            obs_log.console(f"chrome trace written to {args.trace}")
        if args.profile and telemetry.phases:
            from ..obs.profiler import render_hotspots

            obs_log.console(render_hotspots(telemetry.phases), kind="profile")
        if args.cache_stats:
            stats = telemetry.cache
            obs_log.console(
                f"simulation cache: {stats.hits} hits "
                f"({stats.exact_hits} exact + {stats.canonical_hits} canonical) "
                f"/ {stats.misses} misses "
                f"({stats.hit_rate:.0%} hit rate, {stats.entries} entries)"
            )
            if os.environ.get("REPRO_STORE_DIR"):
                from ..store import attach_from_env

                store = attach_from_env()
                obs_log.console(
                    f"persistent store: {stats.persistent_hits} hits, "
                    f"{len(store)} records at {store.root}"
                )
        if args.audit != "off":
            # Experiments that *raised* AuditFault never shipped their
            # counter window back, so count those failures as violations.
            summary = RunTelemetry._fold_audit(
                {"level": args.audit, "checks": 0,
                 "checks_by_invariant": {}, "violations": 0},
                telemetry.audit,
            )
            summary["level"] = args.audit
            summary["violations"] += audit_fault_failures
            telemetry.audit = summary
            obs_log.console(
                f"audit[{args.audit}]: {summary['checks']} checks, "
                f"{summary['violations']} violation(s)"
            )
        if args.export_dir and results:
            from .export import write_results

            paths = write_results(results, args.export_dir)
            if run_ctx is not None:
                for path in paths:
                    run_ctx.add_output(path)
            obs_log.console(f"exported {len(paths)} files to {args.export_dir}")
    finally:
        if args.audit != "off":
            # The level is process-global state; restore it so later runs in
            # the same interpreter start unaudited unless they opt in again.
            from ..audit import auditor as audit_mod

            audit_mod.configure("off")
        if run_ctx is not None:
            from ..obs.prom import write_prometheus

            if budget is not None:
                run_ctx.manifest.extra["error_budget"] = budget.to_dict()
            if checkpoint_info is not None:
                run_ctx.manifest.extra["checkpoint"] = checkpoint_info
            if args.audit != "off":
                run_ctx.manifest.extra["audit"] = telemetry.audit
            manifest = run_ctx.finish(exit_code)
            run_dir = run_ctx.run_dir
            registry = harness_metrics(telemetry, manifest.wall_seconds or 0.0, failures)
            prom_path = write_prometheus(
                run_dir / "metrics.prom", registry, labels={"run_id": run_id}
            )
            run_ctx.add_output(prom_path)
            if args.log_file:
                run_ctx.add_output(args.log_file)
            if args.trace:
                run_ctx.add_output(args.trace)
            manifest_path = write_manifest(manifest, run_dir)
            obs_log.info(
                "run.complete",
                exit_code=exit_code,
                wall_s=manifest.wall_seconds,
                manifest=str(manifest_path),
                metrics=str(prom_path),
            )
        obs_log.shutdown()
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """``repro run ARGV`` (argv defaults to ``sys.argv[1:]``)."""
    from ..__main__ import main as repro_main

    return repro_main(["run", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
