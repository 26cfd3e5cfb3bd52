"""``python -m repro dse sweep|status|replay`` — the sweep engine's CLI.

- ``dse sweep --out DIR`` drives a full exploration: seeds the corner
  grid, refines toward the Pareto frontier for ``--rounds`` rounds,
  shards the work across ``--jobs`` lease-holding workers, and writes the
  canonical ``frontier.json`` artifact.  ``--resume`` continues a sweep
  whose coordinator died (same ``--out``, same settings) and reconstructs
  the artifact byte-identically.
- ``dse status --out DIR`` prints a point-in-time snapshot straight from
  the sweep directory — tasks done/pending, failures, quarantine, worker
  heartbeats, last journaled frontier.  Works on live and dead sweeps.
- ``dse replay --out DIR`` re-runs every quarantined task serially and
  reports which still fail (true poison) and which now pass (their
  results are journaled so a following ``--resume`` folds the point
  back in).

This supersedes the fixed-grid ``design_space_plus`` experiment for
at-scale exploration; that experiment remains for the paper-sized tables.
"""

from __future__ import annotations

import json

from ..errors import ConfigError
from ..obs import log as obs_log

__all__ = ["add_dse_parser", "cmd_dse"]


def add_dse_parser(sub, obs_parent) -> None:
    """Register the ``dse`` subcommand tree on the root CLI.

    ``obs_parent`` goes on the leaf parsers only: on the group parser too,
    argparse would reset a group-level value to the leaf's default.
    """
    p = sub.add_parser(
        "dse",
        help="resilient distributed design-space exploration "
        "(sweep | status | replay)",
    )
    dse_sub = p.add_subparsers(dest="dse_command", required=True)

    sp = dse_sub.add_parser(
        "sweep", parents=[obs_parent],
        help="run (or --resume) an adaptive Pareto sweep",
    )
    sp.add_argument("--out", required=True, metavar="DIR",
                    help="sweep directory (queue, journals, artifact)")
    sp.add_argument("--preset", default="quick",
                    choices=("paper", "quick", "smoke"),
                    help="design-space preset (default quick)")
    sp.add_argument("--workloads", default="ResNet@8,AlexNet@8",
                    metavar="LIST",
                    help="comma list of network[@batch] tokens "
                    "(default ResNet@8,AlexNet@8)")
    sp.add_argument("--quick", action="store_true",
                    help="first 4 conv layers per network only")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = serial in-process)")
    sp.add_argument("--rounds", type=int, default=3,
                    help="refinement rounds after the corner grid "
                    "(default 3)")
    sp.add_argument("--lease-s", type=float, default=30.0, metavar="S",
                    help="task lease TTL; a worker silent past this is "
                    "presumed dead and its task is reclaimed (default 30)")
    sp.add_argument("--max-task-failures", type=int, default=3, metavar="N",
                    help="failures+lease transfers before a task is "
                    "quarantined as poison (default 3, minimum 2)")
    sp.add_argument("--inject-faults", default=None, metavar="SPEC",
                    help="chaos campaign, e.g. "
                    "'crash,hang,flaky,corrupt-store,rate=0.4,seed=7' "
                    "or 'poison=a64-s16'")
    sp.add_argument("--store", default=None, metavar="DIR",
                    help="persistent result store backing the simulators "
                    "(must agree with REPRO_STORE_DIR when both are set)")
    sp.add_argument("--status-file", default=None, metavar="PATH",
                    help="status beacon JSON for `repro top --status-file`")
    sp.add_argument("--resume", action="store_true",
                    help="continue an interrupted sweep in --out")
    sp.set_defaults(func=cmd_dse)

    sp = dse_sub.add_parser(
        "status", parents=[obs_parent],
        help="snapshot a sweep directory (live or dead)",
    )
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output")
    sp.set_defaults(func=cmd_dse)

    sp = dse_sub.add_parser(
        "replay", parents=[obs_parent],
        help="re-run quarantined tasks serially and report",
    )
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.set_defaults(func=cmd_dse)


def cmd_dse(args) -> int:
    if args.dse_command == "sweep":
        return _cmd_sweep(args)
    if args.dse_command == "status":
        return _cmd_status(args)
    if args.dse_command == "replay":
        return _cmd_replay(args)
    raise AssertionError(f"unhandled dse command {args.dse_command!r}")


def _cmd_sweep(args) -> int:
    from ..store import resolve_store_dir
    from .engine import SweepConfig, run_sweep

    try:
        workloads = tuple(
            token.strip()
            for token in args.workloads.split(",") if token.strip()
        )
        if not workloads:
            raise ConfigError(
                "no workloads given", field="workloads", value=args.workloads
            )
        cfg = SweepConfig(
            out=args.out,
            preset=args.preset,
            workloads=workloads,
            quick=args.quick,
            jobs=args.jobs,
            rounds=args.rounds,
            lease_ttl_s=args.lease_s,
            max_task_failures=args.max_task_failures,
            inject_faults=args.inject_faults,
            store=resolve_store_dir(args.store),
            status_file=args.status_file,
            resume=args.resume,
        )
        summary = run_sweep(cfg)
    except ConfigError as err:
        obs_log.error("dse.config_error", error=str(err))
        obs_log.console(f"dse sweep: {err}")
        return 2
    obs_log.console(
        f"dse sweep: {summary['points_evaluated']} point(s) evaluated over "
        f"{summary['rounds']} round(s); frontier has "
        f"{len(summary['frontier'])} point(s); "
        f"{len(summary['quarantined'])} task(s) quarantined"
    )
    for point_id in summary["frontier"]:
        obs_log.console(f"  frontier: {point_id}")
    for task_id in summary["quarantined"]:
        obs_log.console(f"  quarantined: {task_id}  (dse replay --out "
                        f"{summary['out']} to re-test)")
    if summary["degraded"]:
        obs_log.console(
            "dse sweep: worker pool degraded to serial after repeated "
            "crashes — results are complete but slower than requested"
        )
    obs_log.console(f"artifact: {summary['artifact']}")
    return 0


def _cmd_status(args) -> int:
    from .engine import sweep_status

    status = sweep_status(args.out)
    if getattr(args, "as_json", False):
        obs_log.console(json.dumps(status, sort_keys=True, indent=1))
        return 0
    obs_log.console(
        f"sweep at {status['out']}: {status['results']}/{status['tasks']} "
        f"task(s) done, {status['pending']} pending, "
        f"{status['failures']} failure record(s), "
        f"{len(status['quarantined'])} quarantined"
    )
    for wid in sorted(status["workers"]):
        worker = status["workers"][wid]
        task = worker.get("task") or "-"
        obs_log.console(
            f"  worker {wid}: {worker.get('state')} (task {task}, "
            f"done {worker.get('done')}, heartbeat {worker.get('age_s')}s ago)"
        )
    rounds = status["rounds_journaled"]
    if rounds:
        obs_log.console(
            f"  rounds journaled: {rounds}; last frontier: "
            f"{', '.join(status['last_frontier']) or '(empty)'}"
        )
    for task_id in status["quarantined"]:
        obs_log.console(f"  quarantined: {task_id}")
    if status["artifact"]:
        obs_log.console(f"  artifact: {status['artifact']}")
    return 0


def _cmd_replay(args) -> int:
    from .engine import replay_quarantine

    report = replay_quarantine(args.out)
    if not report:
        obs_log.console("dse replay: quarantine is empty")
        return 0
    still_failing = 0
    for entry in report:
        if entry["status"] == "pass":
            obs_log.console(
                f"  PASS {entry['task_id']} (was: {entry['reason']}) — "
                "result journaled; --resume will fold the point back in"
            )
        else:
            still_failing += 1
            obs_log.console(
                f"  STILL-FAILING {entry['task_id']}: {entry['error']}"
            )
    obs_log.console(
        f"dse replay: {len(report) - still_failing}/{len(report)} "
        "quarantined task(s) now pass"
    )
    return 1 if still_failing else 0
