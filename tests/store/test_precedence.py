"""``--store`` vs ``REPRO_STORE_DIR`` precedence: explicit, never silent.

One of the two set: it wins.  Both set to the same directory: fine.  Both
set to *different* directories: a ConfigError (CLI exit 2) — the engine
refuses to guess which store the operator meant.
"""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.store import ENV_VAR, resolve_store_dir

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def no_env_store(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def test_flag_only_wins(tmp_path):
    assert resolve_store_dir(str(tmp_path)) == str(tmp_path.resolve())


def test_env_only_wins(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    assert resolve_store_dir(None) == str(tmp_path.resolve())


def test_neither_is_none():
    assert resolve_store_dir(None) is None


def test_agreement_is_fine_even_with_relative_spelling(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    monkeypatch.chdir(tmp_path.parent)
    assert resolve_store_dir(tmp_path.name) == str(tmp_path.resolve())


def test_conflict_raises_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env-store"))
    with pytest.raises(ConfigError, match=ENV_VAR):
        resolve_store_dir(str(tmp_path / "flag-store"))


def _run(argv, env_store, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if env_store:
        env[ENV_VAR] = env_store
    else:
        env.pop(ENV_VAR, None)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )


def test_runner_cli_conflict_exits_2(tmp_path):
    result = _run(
        ["-m", "repro.harness.runner", "fig2", "--quick",
         "--store", str(tmp_path / "flag-store"),
         "--results-dir", str(tmp_path)],
        env_store=str(tmp_path / "env-store"), tmp_path=tmp_path,
    )
    assert result.returncode == 2, result.stderr[-400:]
    assert ENV_VAR in result.stderr


def test_dse_cli_conflict_exits_2(tmp_path):
    result = _run(
        ["-m", "repro", "dse", "sweep", "--out", str(tmp_path / "sweep"),
         "--preset", "smoke", "--workloads", "AlexNet@4", "--quick",
         "--rounds", "1", "--store", str(tmp_path / "flag-store")],
        env_store=str(tmp_path / "env-store"), tmp_path=tmp_path,
    )
    assert result.returncode == 2, result.stderr[-400:]
    assert ENV_VAR in result.stdout + result.stderr


def _start_serve(tmp_path, env_store, *extra):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    env[ENV_VAR] = env_store
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-watchdog",
         *extra],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
        ),
    ],
)
def test_serve_cli_conflict_exits_2(tmp_path, workers):
    proc = _start_serve(
        tmp_path, str(tmp_path / "env-store"),
        "--workers", str(workers), "--store", str(tmp_path / "flag-store"),
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("serve kept running despite the --store conflict")
    assert proc.returncode == 2, err[-400:]
    assert ENV_VAR in err
    assert "listening" not in out


def test_serve_cli_env_only_attaches_the_store(tmp_path):
    env_store = tmp_path / "env-store"
    proc = _start_serve(tmp_path, str(env_store))
    try:
        first_line = proc.stdout.readline()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    assert first_line.startswith(f"serve: persistent store at {env_store} "), first_line
