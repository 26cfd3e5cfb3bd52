"""Runner-level resilience: --checkpoint/--resume, fault injection, budgets.

These drive :func:`repro.harness.runner.main` in-process (capsys captures
stdout/stderr) — the subprocess kill/resume matrix lives in
``test_resume_e2e.py``.
"""

import json

import pytest

from repro.errors import TransientFault
from repro.harness.runner import EXPERIMENTS, main
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _reset_obs():
    obs_log.shutdown()
    yield
    obs_log.shutdown()


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------- checkpoint/resume


def test_checkpoint_then_resume_is_byte_identical(tmp_path, capsys):
    base = ["table2", "--quick", "--results-dir", str(tmp_path)]
    code, plain_out, _ = _run(capsys, ["table2", "--quick"])
    assert code == 0

    code, out1, _ = _run(capsys, base + ["--checkpoint", "--run-id", "r1"])
    assert code == 0
    journal = tmp_path / "r1" / "checkpoint.jsonl"
    assert journal.exists() and len(journal.read_text().splitlines()) == 1

    code, out2, err2 = _run(capsys, base + ["--resume", "r1"])
    assert code == 0
    assert "resume r1: 1 checkpoint hit(s), 0 experiment(s) to run" in err2
    assert out1 == out2 == plain_out


def test_resume_misses_when_fingerprint_changes(tmp_path, capsys):
    base = ["table2", "--results-dir", str(tmp_path)]
    code, _, _ = _run(capsys, base + ["--quick", "--checkpoint", "--run-id", "r1"])
    assert code == 0
    # Same experiment without --quick: different fingerprint, must rerun.
    code, _, err = _run(capsys, base + ["--resume", "r1"])
    assert code == 0
    assert "resume r1: 0 checkpoint hit(s), 1 experiment(s) to run" in err


def test_corrupted_checkpoint_record_is_skipped_and_rerun(tmp_path, capsys):
    base = ["table2", "--quick", "--results-dir", str(tmp_path)]
    code, out1, _ = _run(
        capsys,
        base + ["--checkpoint", "--run-id", "r1",
                "--inject-faults", "corrupt-checkpoint@0"],
    )
    assert code == 0
    code, out2, err = _run(capsys, base + ["--resume", "r1"])
    assert code == 0
    assert "0 checkpoint hit(s)" in err and "1 corrupt record(s) skipped" in err
    assert out1 == out2
    # The rerun re-journaled a good record: resuming again hits.
    code, out3, err3 = _run(capsys, base + ["--resume", "r1"])
    assert code == 0
    assert "1 checkpoint hit(s), 0 experiment(s) to run" in err3
    assert out3 == out1


# --------------------------------------------------------- fault injection


def test_serial_flaky_injection_retries_to_identical_output(tmp_path, capsys):
    code, plain_out, _ = _run(capsys, ["table2", "--quick"])
    assert code == 0
    code, out, _ = _run(
        capsys,
        ["table2", "--quick", "--results-dir", str(tmp_path),
         "--inject-faults", "seed=5,flaky@0:2"],
    )
    assert code == 0
    assert out == plain_out


def test_serial_flaky_exhaustion_fails_the_run(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        ["table2", "--quick", "--results-dir", str(tmp_path),
         "--max-retries", "1", "--inject-faults", "flaky@0:9"],
    )
    assert code == 1
    assert "error: experiment table2 failed [TransientFault] after 2 attempt(s)" in err


def test_supervised_fatal_fault_reports_and_exits_nonzero(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["table2", "fig2", "--quick", "--jobs", "2",
         "--results-dir", str(tmp_path), "--inject-faults", "fatal@0"],
    )
    assert code == 1
    assert out == ""  # a failed sweep renders nothing
    assert "error: experiment table2 failed [PermanentFault]" in err


def test_bad_inject_spec_exits_2_before_any_work(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["table2", "--quick", "--inject-faults", "explode@1"],
    )
    assert code == 2
    assert out == "" and "bad --inject-faults spec" in err


def test_error_budget_and_checkpoint_land_in_manifest(tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        ["table2", "fig2", "--quick", "--jobs", "2", "--manifest",
         "--checkpoint", "--run-id", "r1", "--results-dir", str(tmp_path),
         "--inject-faults", "seed=2,flaky@1:1"],
    )
    assert code == 0
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    budget = manifest["extra"]["error_budget"]
    assert budget["tasks"] == 2 and budget["succeeded"] == 2
    assert budget["transient_retries"] == 1
    assert budget["faults_by_class"] == {"TransientFault": 1}
    checkpoint = manifest["extra"]["checkpoint"]
    assert checkpoint["appended"] == 2 and checkpoint["hits"] == 0
    assert manifest["args"]["inject_faults"] == "seed=2,flaky@1:1"


# ------------------------------------- one supervised path, serial or not


def _prom_value(prom_text, name):
    (line,) = [
        line for line in prom_text.splitlines() if line.startswith(name + "{")
    ]
    return float(line.rsplit(" ", 1)[1])


def test_serial_run_writes_the_status_file(tmp_path, capsys):
    status = tmp_path / "status.json"
    code, _, _ = _run(
        capsys, ["table2", "table1", "--quick", "--status-file", str(status)]
    )
    assert code == 0
    doc = json.loads(status.read_text())
    assert doc["tasks"]["total"] == doc["tasks"]["done"] == 2
    assert doc["supervisor"]["workers"] == 1


def test_serial_failure_does_not_stop_the_run(monkeypatch, capsys):
    def explode(quick=False):
        raise RuntimeError("injected failure")

    fig7 = EXPERIMENTS["fig7"]
    fig7_calls = []

    def counted_fig7(quick=False):
        fig7_calls.append(quick)
        return fig7(quick=quick)

    monkeypatch.setitem(EXPERIMENTS, "table2", explode)
    monkeypatch.setitem(EXPERIMENTS, "fig7", counted_fig7)
    code, out, err = _run(capsys, ["table2", "fig7", "--quick"])
    assert code == 1
    assert "error: experiment table2 failed [PermanentFault]" in err
    assert fig7_calls == [True]
    assert out == ""  # a failed run renders nothing


def test_serial_run_retries_a_transient_fault(monkeypatch, capsys):
    code, plain_out, _ = _run(capsys, ["table2", "--quick"])
    assert code == 0
    table2 = EXPERIMENTS["table2"]
    calls = []

    def flaky_once(quick=False):
        calls.append(quick)
        if len(calls) == 1:
            raise TransientFault("first attempt flakes")
        return table2(quick=quick)

    monkeypatch.setitem(EXPERIMENTS, "table2", flaky_once)
    code, out, _ = _run(capsys, ["table2", "--quick"])
    assert code == 0
    assert out == plain_out
    assert len(calls) == 2


def test_serial_manifest_has_the_error_budget(tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        ["table2", "table1", "--quick", "--manifest", "--run-id", "m1",
         "--results-dir", str(tmp_path)],
    )
    assert code == 0
    manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
    budget = manifest["extra"]["error_budget"]
    assert budget["tasks"] == budget["succeeded"] == 2


def test_failed_run_keeps_the_telemetry_of_finished_experiments(
    tmp_path, capsys
):
    code, out, _ = _run(
        capsys,
        ["table2", "fig7", "--quick", "--jobs", "2", "--manifest",
         "--run-id", "m1", "--results-dir", str(tmp_path),
         "--inject-faults", "fatal@0"],
    )
    assert code == 1 and out == ""
    run_dir = tmp_path / "m1"
    budget = json.loads((run_dir / "manifest.json").read_text())["extra"][
        "error_budget"
    ]
    assert budget["succeeded"] == 1 and budget["failed"] == 1
    prom = (run_dir / "metrics.prom").read_text()
    assert _prom_value(prom, "repro_experiments_total") == 1
    assert _prom_value(prom, "repro_experiment_failures_total") == 1


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--task-timeout", "0"],
        ["--task-timeout", "-1", "--jobs", "2"],
        ["--task-timeout", "nan"],
        ["--max-retries", "-1"],
    ],
)
def test_bad_numeric_flags_exit_2_before_any_work(flags, tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["table2", "--quick", "--manifest", "--results-dir", str(tmp_path),
         *flags],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flags[0] in err
    assert list(tmp_path.iterdir()) == []  # no run directory, no manifest


def test_unknown_config_values_raise_structured_errors():
    from repro.errors import ConfigError
    from repro.gpu.config import GPUConfig
    from repro.memory.dram import HBMConfig
    from repro.systolic.config import TPUConfig

    with pytest.raises(ConfigError) as excinfo:
        HBMConfig(channels=0)
    assert excinfo.value.field == "channels" and excinfo.value.value == 0
    with pytest.raises(ValueError):  # ConfigError is a ValueError
        TPUConfig(clock_ghz=-1)
    with pytest.raises(ConfigError) as excinfo:
        GPUConfig(compute_efficiency=1.5)
    assert excinfo.value.field == "compute_efficiency"
