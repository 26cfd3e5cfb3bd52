"""Pareto frontier over (cost, performance) + the crash-safe journal.

Aggregation: a design point's performance is its aggregate TFLOPS over the
whole workload zoo (sum of MACs over sum of cycles — the harness's own
convention), its cost the die-area proxy of :func:`repro.dse.evaluate.
point_cost_mm2`.  A point is **dominated** when another point costs no
more and performs at least as well (strictly better on one side); the
frontier is the sorted set of non-dominated points, tie-broken by
``point_id`` so the result is a pure function of the input set.

Durability: every round appends one frontier snapshot to
``frontier.jsonl`` via the fsync'd single-line append (a torn tail is
skipped on load), and the final artifact ``frontier.json`` is written
atomically with canonical JSON (sorted keys, no timestamps), so two
sweeps over the same space produce **byte-identical artifacts** no matter
how many crashes, lease steals or resumes happened in between.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from ..resilience.atomic import JsonlReader, atomic_write_bytes, crash_safe_append
from .evaluate import point_cost_mm2
from .space import DesignPoint, DesignSpace

__all__ = [
    "FRONTIER_SCHEMA",
    "FrontierPoint",
    "aggregate_point",
    "pareto_frontier",
    "FrontierJournal",
    "render_artifact",
    "write_artifact",
]

FRONTIER_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class FrontierPoint:
    """One evaluated design point, ready for dominance comparison."""

    point: DesignPoint
    perf_tflops: float
    cost_mm2: float
    utilization: float
    cycles: float
    macs: int
    cost_parts: Mapping[str, float]

    @property
    def point_id(self) -> str:
        return self.point.point_id

    def dominates(self, other: "FrontierPoint") -> bool:
        no_worse = (
            self.cost_mm2 <= other.cost_mm2
            and self.perf_tflops >= other.perf_tflops
        )
        strictly_better = (
            self.cost_mm2 < other.cost_mm2
            or self.perf_tflops > other.perf_tflops
        )
        return no_worse and strictly_better


def aggregate_point(
    point: DesignPoint, task_results: Iterable[Mapping[str, Any]]
) -> FrontierPoint:
    """Fold one point's per-workload task payloads into a frontier entry.

    Input order does not matter — sums are over the full set, so a point
    evaluated by four racing workers aggregates identically to one
    evaluated serially.
    """
    total_cycles = 0.0
    total_macs = 0
    for payload in task_results:
        total_cycles += float(payload["cycles"])
        total_macs += int(payload["macs"])
    config = point.to_config()
    tflops = (
        2 * total_macs * config.clock_ghz / total_cycles / 1e3
        if total_cycles > 0
        else 0.0
    )
    peak = config.peak_macs_per_cycle * point.mxu
    utilization = (
        total_macs / (peak * total_cycles) if total_cycles > 0 else 0.0
    )
    cost = point_cost_mm2(point)
    return FrontierPoint(
        point=point,
        perf_tflops=tflops,
        cost_mm2=cost["cost_mm2"],
        utilization=utilization,
        cycles=total_cycles,
        macs=total_macs,
        cost_parts=cost,
    )


def pareto_frontier(points: Sequence[FrontierPoint]) -> List[FrontierPoint]:
    """The non-dominated subset, cost-ascending (ties by ``point_id``)."""
    ordered = sorted(points, key=lambda fp: (fp.cost_mm2, fp.point_id))
    frontier: List[FrontierPoint] = []
    best_perf = float("-inf")
    for candidate in ordered:
        if any(other.dominates(candidate) for other in ordered):
            continue
        # Cost-ascending scan: keep only strict performance improvements
        # (equal-perf higher-cost points are dominated and already gone).
        if candidate.perf_tflops > best_perf or not frontier:
            frontier.append(candidate)
            best_perf = max(best_perf, candidate.perf_tflops)
    return frontier


def _point_doc(fp: FrontierPoint, on_frontier: bool) -> Dict[str, Any]:
    return {
        "point_id": fp.point_id,
        "point": fp.point.to_doc(),
        "perf_tflops": fp.perf_tflops,
        "cost_mm2": fp.cost_mm2,
        "utilization": fp.utilization,
        "cycles": fp.cycles,
        "macs": fp.macs,
        "cost_parts": dict(fp.cost_parts),
        "on_frontier": on_frontier,
    }


def _round_record(record: Dict[str, Any]) -> Dict[str, Any]:
    record["round"], record["frontier"]  # shape check
    return record


class FrontierJournal:
    """Append-only Pareto updates, one fsync'd record per round."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)

    def append_round(
        self, round_index: int, frontier: Sequence[FrontierPoint]
    ) -> None:
        record = {
            "schema": FRONTIER_SCHEMA,
            "round": round_index,
            "frontier": [fp.point_id for fp in frontier],
            "size": len(frontier),
        }
        crash_safe_append(
            self.path, json.dumps(record, sort_keys=True), fsync=True
        )

    def load(self) -> List[Dict[str, Any]]:
        """Every well-formed round record, in journal order (torn tails and
        corrupt lines skipped with a warning — the journal is a progress
        ledger; the artifact is rebuilt from results, never from here)."""
        return list(
            JsonlReader(
                self.path, FRONTIER_SCHEMA, "dse.frontier.corrupt_record",
                _round_record,
            )
        )


def render_artifact(
    space: DesignSpace,
    workloads: Sequence[str],
    quick: bool,
    rounds: int,
    evaluated: Sequence[FrontierPoint],
    frontier: Sequence[FrontierPoint],
    quarantined: Sequence[str],
) -> bytes:
    """The canonical frontier artifact — a pure function of the sweep's
    *inputs and results*, never of its execution history (no timestamps,
    worker ids, attempt counts or host identity), so fault-free serial and
    chaotic sharded runs render identical bytes."""
    frontier_ids = {fp.point_id for fp in frontier}
    doc = {
        "schema": FRONTIER_SCHEMA,
        "kind": "repro-dse-frontier",
        "space": space.to_doc(),
        "workloads": sorted(workloads),
        "quick": bool(quick),
        "rounds": rounds,
        "points": [
            _point_doc(fp, fp.point_id in frontier_ids)
            for fp in sorted(evaluated, key=lambda fp: fp.point_id)
        ],
        "frontier": [fp.point_id for fp in frontier],
        "quarantined": sorted(quarantined),
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def write_artifact(path, data: bytes) -> pathlib.Path:
    return atomic_write_bytes(path, data)
