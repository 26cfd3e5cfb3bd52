"""Run one benchmark workload and report its metrics.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload figures-cold --seed 0 \\
        --seconds 20 --trace 0 [--out DIR] [--smoke]

``--workload all`` runs every workload, each in its own process.  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``,
measured with no probes installed; with ``--trace 1`` it installs the
probes of :mod:`probes` and reports the per-layer metrics instead.

The run prints a table of its metrics (name, value, unit, direction,
bound), names every wrong output on stderr, and ends with one JSON line::

    {"correct": true, "attempted": 448, "failed": 0, "metrics": {...}}

It exits 1 when an output is wrong and 2 when it cannot run at all.  It
reads and writes only inside the checkout it runs from: a work directory
``.bench_work-*`` at its root (removed at exit; ``.gitignore`` names it)
and, with ``--out``, one result file carrying the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

WORKLOAD_NAMES = ("figures-cold", "figures-store-warm", "serve-mixed", "dse-paper")


def load_benchmark(root: Path):
    """``(BENCHMARK.json as a dict, its SHA-256)``."""
    raw = (root / "BENCHMARK.json").read_bytes()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()


def provenance(root: Path, seed: int, benchmark_sha256: str) -> dict:
    """Where a result came from: commit, machine, versions, seed, benchmark."""
    import numpy

    sha, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=60).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                        text=True, capture_output=True,
                                        timeout=60).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": seed, "benchmark_sha256": benchmark_sha256,
    }


def end_to_end(outcome) -> dict:
    from probes import percentile

    return {
        "setup_s": statistics.median(outcome.setup),
        "latency_p50_ms": percentile(outcome.latencies, 50) * 1e3,
        "latency_p90_ms": percentile(outcome.latencies, 90) * 1e3,
        "rss_mb": outcome.rss_mb,
    }


def quartiles(samples: list, scale: float, unit: str) -> str:
    """``n=.. q1 .. median .. q3 ..`` of per-operation samples."""
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, median, q3 = (q * scale for q in statistics.quantiles(samples, n=4))
    return f"n={len(samples)} q1 {q1:.4g} median {median:.4g} q3 {q3:.4g} {unit}"


def print_table(workload: str, specs: list, values: dict, outcome) -> None:
    print(f"== {workload}: {outcome.attempted} attempted, {outcome.failed} failed "
          f"(error ratio {outcome.failed / outcome.attempted:.4f})")
    print(f"  timed operations: {quartiles(outcome.latencies, 1e3, 'ms')}; "
          f"set-up launches: {quartiles(outcome.setup, 1.0, 's')}")
    for spec in specs:
        bound = f"bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(f"  {spec['name']:<40} {values[spec['name']]:>14.6g} "
              f"{spec['unit']:<8} {spec['better']:<6} {bound}")
    for name, value in outcome.info.items():
        print(f"  (info) {name:<33} {value:>14.6g}")


def run_one(args, bench: dict, bench_sha256: str) -> int:
    import workloads

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work)
    run = workloads.Run(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), smoke=args.smoke)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: could not run", file=sys.stderr)
        return 2
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        specs = bench["per_layer"]
        from probes import layer_metrics

        values = layer_metrics([s["name"] for s in specs], outcome.docs,
                               outcome.norm, outcome.wall_s, outcome.layer_extra)
    else:
        specs = bench["end_to_end"]
        values = end_to_end(outcome)
    if set(values) != {s["name"] for s in specs}:
        print(f"{args.workload}: metrics {sorted(values)} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print_table(args.workload, specs, values, outcome)
    for problem in outcome.errors:
        print(f"{args.workload}: WRONG OUTPUT: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = dict(result, workload=args.workload, trace=args.trace,
                      seconds=args.seconds, info=outcome.info,
                      samples={"latency_s": outcome.latencies, "setup_s": outcome.setup},
                      provenance=provenance(ROOT, args.seed, bench_sha256))
        name = f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}.json"
        (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; exits nonzero if any run did."""
    worst = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        if args.out:
            argv += ["--out", args.out]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each workload measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per workload and one set-up launch")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write each result, with provenance, here")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro", "results", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"run.py: {ROOT} is not a checkout of the repository "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench, bench_sha256 = load_benchmark(ROOT)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench, bench_sha256)


if __name__ == "__main__":
    sys.exit(main())
