"""Pareto frontier, aggregation, journal and the canonical artifact."""

import json

import pytest

from repro.dse.frontier import (
    FrontierJournal,
    FrontierPoint,
    aggregate_point,
    pareto_frontier,
    render_artifact,
)
from repro.dse.space import PRESETS, DesignPoint

SMOKE = PRESETS["smoke"]


def _fp(array, cost, perf):
    """A frontier point with an explicit (cost, perf) and a distinct id."""
    point = DesignPoint(
        array=array, sram_mb=32, word_elems=8, hbm_gbps=700, mxu=1
    )
    return FrontierPoint(
        point=point, perf_tflops=perf, cost_mm2=cost,
        utilization=0.5, cycles=1.0, macs=1, cost_parts={"cost_mm2": cost},
    )


# --------------------------------------------------------------- dominance
def test_dominates_requires_strict_improvement():
    cheap_fast = _fp(64, cost=1.0, perf=2.0)
    dear_slow = _fp(128, cost=2.0, perf=1.0)
    twin = _fp(256, cost=1.0, perf=2.0)
    assert cheap_fast.dominates(dear_slow)
    assert not dear_slow.dominates(cheap_fast)
    assert not cheap_fast.dominates(twin)  # equal on both axes: no winner


def test_pareto_frontier_drops_dominated_and_sorts_by_cost():
    points = [
        _fp(64, cost=3.0, perf=3.0),
        _fp(128, cost=1.0, perf=1.0),
        _fp(256, cost=2.0, perf=0.5),  # dominated by the cost-1 point
        _fp(512, cost=2.0, perf=2.0),
    ]
    frontier = pareto_frontier(points)
    assert [fp.cost_mm2 for fp in frontier] == [1.0, 2.0, 3.0]
    assert all(fp.point.array != 256 for fp in frontier)


def test_pareto_frontier_keeps_one_of_equal_twins():
    # Neither twin dominates the other; the cost-ascending scan keeps the
    # first (point_id tie-break) so the frontier is still a pure function
    # of the input set.
    twins = [_fp(64, cost=1.0, perf=1.0), _fp(128, cost=1.0, perf=1.0)]
    frontier = pareto_frontier(twins)
    assert len(frontier) == 1
    assert frontier == pareto_frontier(list(reversed(twins)))


def test_pareto_frontier_is_order_independent():
    points = [
        _fp(64, cost=3.0, perf=3.0),
        _fp(128, cost=1.0, perf=1.0),
        _fp(512, cost=2.0, perf=2.0),
    ]
    assert pareto_frontier(points) == pareto_frontier(points[::-1])


# ------------------------------------------------------------- aggregation
def test_aggregate_point_is_order_independent():
    point = SMOKE.seed_points()[0]
    payloads = [
        {"cycles": 100.0, "macs": 1000},
        {"cycles": 300.0, "macs": 5000},
        {"cycles": 50.0, "macs": 250},
    ]
    forward = aggregate_point(point, payloads)
    backward = aggregate_point(point, payloads[::-1])
    assert forward == backward
    assert forward.cycles == 450.0 and forward.macs == 6250


# ----------------------------------------------------------------- journal
def test_journal_roundtrip_and_corrupt_line_skip(tmp_path):
    journal = FrontierJournal(tmp_path / "frontier.jsonl")
    journal.append_round(0, [_fp(64, 1.0, 1.0)])
    journal.append_round(1, [_fp(64, 1.0, 1.0), _fp(128, 2.0, 2.0)])
    # A torn tail, as a crash mid-append leaves it.
    with open(journal.path, "a") as handle:
        handle.write('{"schema": 1, "round": 2, "fron')
    rounds = journal.load()
    assert [rec["round"] for rec in rounds] == [0, 1]
    assert rounds[1]["size"] == 2


@pytest.mark.parametrize("bad", ["[1, 2]", "7", '"x"', "null"])
def test_journal_skips_valid_json_that_is_not_a_record(tmp_path, bad):
    journal = FrontierJournal(tmp_path / "frontier.jsonl")
    journal.append_round(0, [_fp(64, 1.0, 1.0)])
    with open(journal.path, "a") as handle:
        handle.write(bad + "\n")
    journal.append_round(1, [_fp(128, 2.0, 2.0)])
    assert [rec["round"] for rec in journal.load()] == [0, 1]


def test_journal_load_missing_file(tmp_path):
    assert FrontierJournal(tmp_path / "absent.jsonl").load() == []


# ---------------------------------------------------------------- artifact
def test_artifact_bytes_are_input_order_independent():
    evaluated = [_fp(64, 1.0, 1.0), _fp(128, 2.0, 2.0), _fp(256, 3.0, 3.0)]
    frontier = pareto_frontier(evaluated)
    first = render_artifact(
        SMOKE, ["B@4", "A@8"], True, 2, evaluated, frontier, ["z/t", "a/t"]
    )
    second = render_artifact(
        SMOKE, ["A@8", "B@4"], True, 2, evaluated[::-1], frontier, ["a/t", "z/t"]
    )
    assert first == second


def test_artifact_carries_no_execution_history():
    evaluated = [_fp(64, 1.0, 1.0)]
    doc = json.loads(
        render_artifact(SMOKE, ["A@8"], False, 1, evaluated, evaluated, [])
    )
    assert doc["kind"] == "repro-dse-frontier"
    assert doc["frontier"] == [evaluated[0].point_id]
    flat = json.dumps(doc)
    for forbidden in ("time", "worker", "attempt", "host", "pid"):
        assert forbidden not in flat
