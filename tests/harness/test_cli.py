"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_list_networks(capsys):
    assert main(["list-networks"]) == 0
    out = capsys.readouterr().out
    assert "VGG16" in out and "ResNet" in out


def test_simulate_conv_defaults(capsys):
    assert main(["simulate-conv"]) == 0
    out = capsys.readouterr().out
    assert "TPU-v2" in out and "V100" in out and "TFLOPS" in out


def test_simulate_conv_custom_shape(capsys):
    assert main(["simulate-conv", "--c-in", "64", "--size", "14", "--stride", "2"]) == 0
    out = capsys.readouterr().out
    assert "s2" in out


def test_simulate_network_tpu(capsys):
    assert main(["simulate-network", "AlexNet", "--batch", "4"]) == 0
    assert "AlexNet" in capsys.readouterr().out


def test_simulate_network_gpu(capsys):
    assert main(["simulate-network", "ZFNet", "--platform", "gpu"]) == 0
    assert "V100" in capsys.readouterr().out


def test_sweep_stride(capsys):
    assert main(["sweep-stride", "--batch", "8"]) == 0
    out = capsys.readouterr().out
    assert "TPU CF" in out and "GEMM" in out


def test_run_subcommand(capsys):
    assert main(["run", "table2"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_run_all_flag_parses():
    args = build_parser().parse_args(["run", "--all", "--quick"])
    assert args.run_all and args.quick and args.ids == []


def test_cli_quiet_suppresses_output(capsys):
    assert main(["simulate-conv", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_log_file_records_events(tmp_path, capsys):
    import json

    log_path = tmp_path / "cli.jsonl"
    assert main(["list-networks", "--log-file", str(log_path)]) == 0
    capsys.readouterr()
    events = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert any(e["event"] == "console" for e in events)


def test_cli_manifest_written(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.chdir(tmp_path)
    assert main(["simulate-conv", "--manifest"]) == 0
    capsys.readouterr()
    (run_dir,) = (tmp_path / "results").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["tool"] == "repro.simulate-conv"
    assert manifest["exit_code"] == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_unknown_network_errors():
    with pytest.raises(KeyError):
        main(["simulate-network", "LeNet"])


@pytest.mark.parametrize(
    "argv",
    [
        ["store", "--log-file", "a.jsonl", "verify", "DIR"],
        ["store", "--quiet", "stats", "DIR"],
        ["dse", "--log-level", "info", "status", "--out", "X"],
    ],
)
def test_observability_flags_before_a_leaf_subcommand_are_refused(argv):
    # Accepted on the group parser, the leaf's defaults would silently
    # overwrite them; refusing beats ignoring.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_observability_flags_after_the_leaf_subcommand_apply():
    args = build_parser().parse_args(["store", "stats", "DIR", "--quiet"])
    assert args.quiet
    args = build_parser().parse_args(
        ["dse", "status", "--out", "X", "--log-level", "info"]
    )
    assert args.log_level == "info"
