"""Compare benchmark results of a parent commit and a change.

Collect at least 10 runs per side, one seed per pair of runs, alternating
which side runs first::

    python3 benchmarks/suite/compare.py collect PARENT_ROOT CHANGE_ROOT \\
        --out DIR [--runs 10] [--seed 1000] [--workload W ...]

writes the results of ``run.py --out`` to ``DIR/parent`` and
``DIR/change``.  Then::

    python3 benchmarks/suite/compare.py report DIR/parent DIR/change \\
        [--claim METRIC@WORKLOAD]

applies the rule of the choosing-metrics method to every (end-to-end
metric, workload) pair and prints one line per pair and one per workload:

- the claimed pair is a gain when the change wins at least 9 of every 10
  pairs (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
- every other pair is a regression when the change's median is worse than
  the parent's by more than the metric's bound in ``BENCHMARK.json``, and
  unresolved when the parent's own spread (IQR over median) is wider than
  the bound, unless every change run beats every parent run;
- a workload whose share of failed operations grew, or with a wrong
  output on either side, is flagged.

``report`` refuses results whose ``nproc``, seeds or ``BENCHMARK.json``
digest differ, or that have fewer than 10 runs per side.  It exits 0 when
nothing regressed, nothing is unresolved or flagged, and the claim (if
any) is met.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_RUNS = 10
WIN_SHARE = 0.9


class Refused(Exception):
    """The two result sets cannot be compared."""


def load(directory: Path) -> dict:
    """``{workload: {seed: result}}`` of the untraced results in a directory."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result["trace"]:
            continue
        seed = result["provenance"]["seed"]
        if seed in runs.setdefault(result["workload"], {}):
            raise Refused(f"{directory}: two {result['workload']} runs with seed {seed}")
        runs[result["workload"]][seed] = result
    return runs


def check_comparable(parent: dict, change: dict, benchmark_sha256: str) -> None:
    results = [r for side in (parent, change) for by_seed in side.values()
               for r in by_seed.values()]
    for key, want in (("nproc", None), ("benchmark_sha256", benchmark_sha256)):
        seen = {r["provenance"][key] for r in results}
        if want is not None:
            seen.add(want)
        if len(seen) > 1:
            raise Refused(f"results differ in {key}: {sorted(map(str, seen))}")
    if set(parent) != set(change):
        raise Refused(f"workloads differ: {sorted(parent)} vs {sorted(change)}")
    for workload in parent:
        if set(parent[workload]) != set(change[workload]):
            raise Refused(f"{workload}: the two sides ran different seeds")
        if len(parent[workload]) < MIN_RUNS:
            raise Refused(f"{workload}: {len(parent[workload])} runs per side, "
                          f"need at least {MIN_RUNS}")


def spread(values: list) -> tuple:
    """``(median, first quartile, third quartile)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def judge(parent: list, change: list, spec: dict, claimed: bool) -> str:
    """The verdict on one (metric, workload) pair of paired runs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med = statistics.median(change)
    if claimed:
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gained = sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p_q3 - p_q1
        return "gain" if wins >= WIN_SHARE * len(parent) and gained else "claim not met"
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "better"
    if (p_q3 - p_q1) / p_med > spec["bound"]:
        return "unresolved"
    if sign * (c_med - p_med) / p_med > spec["bound"]:
        return "REGRESSION"
    return "ok"


def report(parent_dir: Path, change_dir: Path, claim: str = None) -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    bench = json.loads(raw)
    parent, change = load(parent_dir), load(change_dir)
    check_comparable(parent, change, hashlib.sha256(raw).hexdigest())
    bad = 0
    claim_met = claim is None
    print(f"{'workload':<20} {'metric':<18} {'parent median [q1, q3]':>34} "
          f"{'change median':>14} {'delta':>8}  verdict")
    for workload in sorted(parent):
        seeds = sorted(parent[workload])
        row = []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            claimed = claim == f"{name}@{workload}"
            verdict = judge(p, c, spec, claimed)
            if claimed:
                claim_met = verdict == "gain"
            elif verdict in ("REGRESSION", "unresolved"):
                bad += 1
            p_med, p_q1, p_q3 = spread(p)
            c_med = statistics.median(c)
            print(f"{workload:<20} {name:<18} {p_med:>12.5g} [{p_q1:.5g}, {p_q3:.5g}]"
                  f"{'':>2} {c_med:>14.5g} {(c_med - p_med) / p_med:>+8.1%}  {verdict}")
            row.append(verdict)
        shares = []
        for side in (parent, change):
            runs = side[workload].values()
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        wrong = sum(not r["correct"] for side in (parent, change)
                    for r in side[workload].values())
        flags = []
        if shares[1] > shares[0]:
            flags.append("more failures")
        if wrong:
            flags.append(f"{wrong} run(s) with wrong output")
        bad += bool(flags)
        print(f"{workload:<20} {'== workload':<18} failed share {shares[0]:.4f} -> "
              f"{shares[1]:.4f}; {len(seeds)} pairs; "
              + (", ".join(flags) if flags else
                 ", ".join(f"{row.count(v)} {v}" for v in sorted(set(row)))))
    if claim is not None:
        print(f"claim {claim}: {'met' if claim_met else 'NOT met'}")
    return 0 if bad == 0 and claim_met else 1


def collect(parent_root: Path, change_root: Path, out: Path, runs: int,
            seed: int, workloads: list) -> int:
    failures = 0
    for index in range(runs):
        sides = [("parent", parent_root), ("change", change_root)]
        if index % 2:
            sides.reverse()
        for workload in workloads:
            for label, root in sides:
                argv = [sys.executable, "benchmarks/suite/run.py", "--workload",
                        workload, "--seed", str(seed + index), "--trace", "0",
                        "--out", str(out.resolve() / label)]
                done = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL)
                if done.returncode:
                    failures += 1
                    print(f"{label} {workload} seed {seed + index}: exit "
                          f"{done.returncode}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run both checkouts, alternating")
    run.add_argument("parent_root", type=Path)
    run.add_argument("change_root", type=Path)
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--runs", type=int, default=MIN_RUNS)
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--workload", action="append", dest="workloads")
    rep = sub.add_parser("report", help="judge two result directories")
    rep.add_argument("parent_dir", type=Path)
    rep.add_argument("change_dir", type=Path)
    rep.add_argument("--claim", default=None, metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    if args.command == "collect":
        from run import WORKLOAD_NAMES

        return collect(args.parent_root, args.change_root, args.out, args.runs,
                       args.seed, args.workloads or list(WORKLOAD_NAMES))
    try:
        return report(args.parent_dir, args.change_dir, args.claim)
    except Refused as err:
        print(f"compare.py: refusing to compare: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
