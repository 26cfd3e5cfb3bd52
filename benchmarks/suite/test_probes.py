"""Probe liveness and reconciliation, on traced smoke-size runs.

Every probe a workload exercises must fire, so a renamed or moved function
fails here instead of silently reading 0; the layers a workload bypasses
must read exactly 0; and the probes' self times must add up to the
top-level time they cover, within 2% of the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent

EXPERIMENTS = ("table1", "table2", "fig2", "fig4", "fig7", "fig13", "fig14",
               "fig15", "fig16", "fig17", "fig18", "ablations", "extensions",
               "batch_sweep", "sparsity", "design_space_plus")
FIGURES = [f"harness.experiment.{e}.s" for e in EXPERIMENTS] + [
    "harness.write_results.s", "core.random_conv_weights.calls",
    "core.prune_positions.s", "systolic.simulate_conv.calls",
    "systolic.simulate_gemm.s", "systolic.execute_schedule.calls",
    "systolic.simulate_conv_dual_mxu.calls", "systolic.simulate_conv_batch.calls",
    "gpu.cudnn_conv_time.s", "gpu.channel_first_conv_time.s",
]

#: workload -> (metrics that must be > 0, metrics that must be exactly 0)
EXPECTED = {
    "figures-cold": (
        FIGURES + ["perf.conv_schedule_batch.s", "perf.execute_schedule_batch.s",
                   "perf.execute_schedule_arrays.calls", "perf.memo.misses"],
        ["store.load.calls", "store.save.calls", "serve.parse.us",
         "dse.evaluate_task.calls"],
    ),
    "figures-store-warm": (
        FIGURES + ["store.load.calls", "store.decode_value.s",
                   "perf.memo.persistent_hits"],
        ["perf.memo.misses", "store.save.calls", "perf.execute_schedule_arrays.calls",
         "serve.parse.us", "dse.evaluate_task.calls"],
    ),
    "dse-paper": (
        ["dse.run_sweep.self_s", "dse.evaluate_task.calls", "dse.queue.claim.s",
         "dse.queue.complete.s", "dse.queue.release.s", "dse.queue.add_task.s",
         "resilience.crash_safe_append.calls", "systolic.simulate_conv.calls",
         "systolic.simulate_conv_dual_mxu.calls", "perf.execute_schedule_arrays.calls"],
        ["harness.write_results.s", "store.load.calls", "serve.parse.us"],
    ),
    "serve-mixed": (
        ["serve.parse.us", "serve.submit.us", "serve.encode.us", "serve.wait.p50_ms",
         "serve.price.p50_ms", "serve.batch_size_mean", "serve.simulations",
         "systolic.simulate_conv_batch.calls", "perf.conv_schedule_batch.s",
         "store.load.calls", "store.decode_value.s", "store.save.calls",
         "store.encode_value.s", "perf.memo.persistent_hits",
         "serve.client_lag_p99_ms", "serve.unattributed_share"],
        ["harness.write_results.s", "core.random_conv_weights.calls",
         "dse.evaluate_task.calls"],
    ),
}


def traced_smoke(workload: str, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--smoke", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    [path] = out.glob("*.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_probes_fire_and_reconcile(workload, tmp_path):
    result = traced_smoke(workload, tmp_path)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    fires, bypassed = EXPECTED[workload]
    assert [name for name in fires if not metrics[name] > 0] == []
    assert [name for name in bypassed if metrics[name] != 0] == []
    assert metrics["reconcile_error"] <= 0.02
    assert 0 < metrics["trace_overhead"] < 0.1
    if workload == "serve-mixed":
        assert 0 < metrics["serve.unattributed_share"] < 1
