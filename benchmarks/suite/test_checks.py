"""Every check of the benchmark can fail.

A wrong export, a wrong frontier and a wrong served answer each make the
workload exit nonzero and name itself, including a wrong answer the store
prefill computed and the server reads back; refused requests show up as
failures; a smoke run leaves the repository as it found it; and
``compare.py`` flags a regression and refuses mismatched result sets.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import traffic
import workloads

ROOT = run.ROOT


SEED = 3


def bench(capsys, workload: str):
    """``(exit code, stdout, stderr)`` of an in-process smoke run."""
    code = run.main(["--workload", workload, "--smoke", "--seed", str(SEED)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_changed_csv_byte_fails_figures(tmp_path, monkeypatch, capsys):
    tampered = tmp_path / "results"
    shutil.copytree(ROOT / "results", tampered)
    csv = sorted(tampered.glob("*.csv"))[0]
    data = bytearray(csv.read_bytes())
    data[0] ^= 1
    csv.write_bytes(bytes(data))
    monkeypatch.setattr(workloads, "expected_results", lambda root: tampered)
    code, _, err = bench(capsys, "figures-cold")
    assert code == 1
    assert f"figures-cold: WRONG OUTPUT: first pass: {csv.name} differs" in err


def test_wrong_frontier_digest_fails_dse(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FRONTIER_SHA256", "0" * 64)
    code, _, err = bench(capsys, "dse-paper")
    assert code == 1
    assert "dse-paper: WRONG OUTPUT: frontier.json sha256" in err


def test_served_cycles_off_the_model_fail_serve(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "reference_cycles", lambda spec: -1)
    code, _, err = bench(capsys, "serve-mixed")
    assert code == 1
    assert "serve-mixed: WRONG OUTPUT:" in err and "!= in-process model -1" in err


def test_wrong_prefilled_answer_fails_serve(monkeypatch, capsys):
    """The prefill computes the first catalog layer the run reads wrong,
    into its memo and the store alike; the server answers it from the
    store, and the check must not compare that answer with the memo the
    prefill left behind."""
    request_specs, prefill = traffic.request_specs, workloads._prefill
    wrong = []

    def first_read_recorded(*args):
        requests = request_specs(*args)
        wrong.append(next(s for s in requests if not s.name.startswith("novel-")))
        return requests

    def prefill_one_wrong(store_dir, specs):
        from repro.perf.cache import SimulationCache, spec_key

        store = SimulationCache.store

        def store_one_wrong(self, key, value, canonical_key=None):
            if spec_key(wrong[0]) in key:
                value = dataclasses.replace(value, cycles=value.cycles + 1)
            store(self, key, value, canonical_key)

        with monkeypatch.context() as patch:
            patch.setattr(SimulationCache, "store", store_one_wrong)
            prefill(store_dir, specs)

    monkeypatch.setattr(traffic, "request_specs", first_read_recorded)
    monkeypatch.setattr(workloads, "_prefill", prefill_one_wrong)
    code, _, err = bench(capsys, "serve-mixed")
    assert code == 1
    assert f"serve-mixed: WRONG OUTPUT: {wrong[0].describe()}: served cycles" in err


def test_shed_requests_count_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SERVE_FLAGS", ["--workers", "1", "--max-pending", "1"])
    code, out, _ = bench(capsys, "serve-mixed")
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert result["failed"] > 0
    ratio = float(out.split("error ratio ")[1].split(")")[0])
    assert ratio == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)


def test_smoke_run_records_provenance_and_leaves_the_tree_alone(tmp_path):
    def status():
        results = sorted(str(p) for p in (ROOT / "results").rglob("*"))
        if not (ROOT / ".git").exists():
            return results
        return results, subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                       capture_output=True, text=True, check=True).stdout

    before = status()
    subprocess.run([sys.executable, "benchmarks/suite/run.py", "--workload",
                    "figures-cold", "--smoke", "--seed", "5", "--out", str(tmp_path)],
                   cwd=ROOT, check=True, capture_output=True, timeout=600)
    assert status() == before
    [path] = tmp_path.glob("*.json")
    provenance = json.loads(path.read_text())["provenance"]
    assert set(provenance) == {"git_sha", "git_dirty", "nproc", "python", "numpy",
                               "seed", "benchmark_sha256"}
    assert provenance["seed"] == 5 and provenance["nproc"] == os.cpu_count()
    digest = hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes()).hexdigest()
    assert provenance["benchmark_sha256"] == digest


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/suite/run.py", "--workload",
                           "figures-cold", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------- compare


def fake_results(directory: Path, scale: dict = None, digest: str = None) -> Path:
    """Ten result files whose metrics are 100 * (1 + i/1000) * scale."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digest = digest or hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes()).hexdigest()
    directory.mkdir()
    for seed in range(10):
        metrics = {
            m["name"]: {"value": 100 * (1 + seed / 1000) * (scale or {}).get(m["name"], 1),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        result = {
            "correct": True, "attempted": 10, "failed": 0, "metrics": metrics,
            "workload": "figures-cold", "trace": 0,
            "provenance": {"seed": seed, "nproc": 2, "benchmark_sha256": digest},
        }
        (directory / f"r{seed}.json").write_text(json.dumps(result))
    return directory


def test_compare_passes_identical_sets(tmp_path, capsys):
    parent = fake_results(tmp_path / "p")
    change = fake_results(tmp_path / "c")
    assert compare.main(["report", str(parent), str(change)]) == 0


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    parent = fake_results(tmp_path / "p")
    change = fake_results(tmp_path / "c", {"latency_p50_ms": 1.3})
    assert compare.main(["report", str(parent), str(change)]) == 1
    assert "latency_p50_ms" in capsys.readouterr().out.split("REGRESSION")[0].splitlines()[-1]


def test_compare_accepts_a_claimed_gain(tmp_path, capsys):
    parent = fake_results(tmp_path / "p")
    change = fake_results(tmp_path / "c", {"latency_p50_ms": 0.8})
    argv = ["report", str(parent), str(change), "--claim", "latency_p50_ms@figures-cold"]
    assert compare.main(argv) == 0
    assert "claim latency_p50_ms@figures-cold: met" in capsys.readouterr().out


def test_compare_refuses_another_benchmark(tmp_path, capsys):
    parent = fake_results(tmp_path / "p")
    change = fake_results(tmp_path / "c", digest="0" * 64)
    assert compare.main(["report", str(parent), str(change)]) == 2
    assert "benchmark_sha256" in capsys.readouterr().err
