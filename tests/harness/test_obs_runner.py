"""Runner observability: exit codes, --quiet, manifests and metrics files."""

import json

import pytest

from repro.harness import runner
from repro.harness.runner import EXPERIMENTS, RunTelemetry, harness_metrics, main
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def reset_log_state():
    obs_log.shutdown()
    yield
    obs_log.shutdown()


# ------------------------------------------------------------- exit codes


def test_failing_experiment_exits_nonzero(monkeypatch, capsys):
    def explode(quick=False):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(EXPERIMENTS, "table2", explode)
    assert main(["table2"]) == 1
    captured = capsys.readouterr()
    assert "error: experiment table2 failed [PermanentFault]" in captured.err
    assert "injected failure" in captured.err


def test_audit_failure_exits_nonzero(monkeypatch, tmp_path, capsys):
    from repro.trace.metrics import LayerCycleRecord

    # exposed_dma_cycles breaks the exposure identity (should be 20).
    corrupt = LayerCycleRecord(
        source="test", name="bad", cycles=100.0, compute_cycles=80.0,
        dma_cycles=60.0, exposed_dma_cycles=55.0, macs=1000, utilization=0.5,
    )

    def fake_execute(args, ids, tracing, run_id, plan):
        return [], RunTelemetry(layers=[corrupt]), [], None, None

    monkeypatch.setattr(runner, "_execute", fake_execute)
    assert main(["table2", "--trace", str(tmp_path / "trace.json")]) == 1
    assert "cycle-accounting audit failed" in capsys.readouterr().err


def test_failure_is_stamped_into_manifest(monkeypatch, tmp_path, capsys):
    def explode(quick=False):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(EXPERIMENTS, "table2", explode)
    assert main(
        ["table2", "--manifest", "--results-dir", str(tmp_path)]
    ) == 1
    capsys.readouterr()
    (run_dir,) = tmp_path.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    prom = (run_dir / "metrics.prom").read_text()
    assert "repro_experiment_failures_total" in prom


# ----------------------------------------------------------------- quiet


def test_quiet_suppresses_stdout_but_still_exports(tmp_path, capsys):
    export_dir = tmp_path / "results"
    assert main(["table2", "--quiet", "--export-dir", str(export_dir)]) == 0
    assert capsys.readouterr().out == ""
    assert (export_dir / "table2.json").exists()


def test_quiet_export_is_byte_identical_to_loud(tmp_path, capsys):
    loud_dir, quiet_dir = tmp_path / "loud", tmp_path / "quiet"
    assert main(["table2", "--export-dir", str(loud_dir)]) == 0
    assert main(["table2", "--quiet", "--export-dir", str(quiet_dir)]) == 0
    capsys.readouterr()
    loud = (loud_dir / "table2.json").read_bytes()
    assert loud == (quiet_dir / "table2.json").read_bytes()


# ------------------------------------------------------------- artifacts


def test_obs_run_writes_manifest_metrics_and_log(tmp_path, capsys):
    log_path = tmp_path / "run.jsonl"
    results_dir = tmp_path / "results"
    assert main(
        [
            "table2", "--profile",
            "--log-file", str(log_path),
            "--results-dir", str(results_dir),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "== phase profile ==" in out

    (run_dir,) = results_dir.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["run_id"] == run_dir.name
    assert manifest["tool"] == "repro.harness.runner"
    assert manifest["exit_code"] == 0
    assert manifest["args"]["experiments"] == ["table2"]
    assert manifest["wall_seconds"] > 0
    assert str(log_path) in manifest["outputs"]
    assert {"git", "python", "numpy", "config_fingerprints"} <= set(
        manifest["provenance"]
    )

    prom = (run_dir / "metrics.prom").read_text()
    assert f'repro_experiments_total{{run_id="{run_dir.name}"}} 1' in prom
    assert "repro_experiment_seconds_bucket" in prom

    events = [json.loads(line) for line in log_path.read_text().splitlines()]
    names = [event["event"] for event in events]
    assert "run.start" in names
    assert "experiment.done" in names
    assert "run.complete" in names
    assert all(event["run_id"] == run_dir.name for event in events)


def test_default_run_writes_no_observability_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["table2"]) == 0
    capsys.readouterr()
    assert not (tmp_path / "results").exists()


# --------------------------------------------------------------- metrics


def test_harness_metrics_snapshot():
    from repro.perf.cache import CacheStats

    telemetry = RunTelemetry(
        cache=CacheStats(hits=30, misses=10, entries=10),
        timings=[("table2", 0.5), ("fig7", 1.5)],
    )
    registry = harness_metrics(telemetry, wall_seconds=2.0, failures=1)
    assert registry.counters["repro_experiments_total"] == 2
    assert registry.counters["repro_experiment_failures_total"] == 1
    assert registry.counters["repro_layers_simulated_total"] == 40
    assert registry.gauges["repro_sim_cache_hit_rate"] == 0.75
    assert registry.gauges["repro_layers_per_second"] == 20.0
    assert registry.histograms["repro_experiment_seconds"].count == 2
