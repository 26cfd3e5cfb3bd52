"""Cross-process trace reassembly: ``--jobs 2`` yields connected span trees.

The supervisor mints one :class:`TraceContext` per task and threads its
``traceparent`` through the worker payload; the worker adopts it as the
root of its subtree.  If any hop drops the context, spans either start a
fresh trace (extra roots) or point at a parent nobody exported (orphans) —
both of which :func:`repro.trace.export.span_forest` makes assertable.
"""

import json

import pytest

from repro.harness.runner import main
from repro.obs import log as obs_log
from repro.trace.export import span_forest
from repro.trace.tracer import TraceEvent


@pytest.fixture(autouse=True)
def _reset_obs():
    obs_log.shutdown()
    yield
    obs_log.shutdown()


def _load_events(trace_path):
    payload = json.loads(trace_path.read_text())
    return [
        TraceEvent(
            name=e["name"], cat=e["cat"], ph=e["ph"], ts=e["ts"],
            dur=e.get("dur", 0.0), pid=e["pid"], tid=e["tid"],
            args=tuple(sorted(e.get("args", {}).items())),
        )
        for e in payload["traceEvents"]
    ]


def test_jobs2_trace_is_one_connected_tree_per_task(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(
        ["table2", "fig2", "--quick", "--jobs", "2",
         "--results-dir", str(tmp_path / "results"),
         "--trace", str(trace_path)],
    )
    capsys.readouterr()
    assert code == 0
    events = _load_events(trace_path)

    forest = span_forest(events)
    # One trace per supervised task, each a single connected tree.
    assert len(forest) == 2
    by_experiment = {}
    for trace_id, tree in forest.items():
        assert len(tree["roots"]) == 1, f"trace {trace_id}: {tree['roots']}"
        assert tree["orphans"] == [], f"trace {trace_id} has orphans"
        root = tree["spans"][tree["roots"][0]]
        assert root.name == "experiment"
        by_experiment[dict(root.args)["experiment"]] = tree

    # Every context-stamped span belongs to some task's tree — nothing
    # leaks into an anonymous trace.
    assert set(by_experiment) == {"table2", "fig2"}
    # fig2 simulates layers, so its worker recorded real engine spans
    # nested under the adopted root (table2 is a config table: root only).
    fig2_names = {e.name for e in by_experiment["fig2"]["spans"].values()}
    assert "tpu.conv.batch" in fig2_names
    assert len(by_experiment["fig2"]["spans"]) > 1


def test_serial_trace_also_yields_connected_trees(tmp_path, capsys):
    """Serial runs mint a fresh root per experiment — the forest invariant
    (one root, zero orphans per task) holds without a supervisor too."""
    trace_path = tmp_path / "trace.json"
    code = main(
        ["fig2", "--quick", "--results-dir", str(tmp_path / "results"),
         "--trace", str(trace_path)],
    )
    capsys.readouterr()
    assert code == 0
    forest = span_forest(_load_events(trace_path))
    assert len(forest) == 1
    (tree,) = forest.values()
    assert len(tree["roots"]) == 1 and tree["orphans"] == []
    assert len(tree["spans"]) > 1
