"""Smoke tests for the benchmark: every metric in BENCHMARK.json is emitted.

    python3 -m pytest perfbench/check_smoke.py -q

Each test runs perfbench/run.py with --smoke, which shrinks every input so a
run takes a few seconds. The file name keeps these tests out of the default
pytest collection of the repository's own suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("environment: nproc=")
    assert "OPENBLAS_NUM_THREADS=1" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    out = run(workload, 0)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert all(v["value"] > 0 for v in metrics.values()), metrics


def test_traced_self_times_account_for_the_wall_time():
    out = run("train", 1)
    metrics = {k: v["value"] for k, v in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items()}
    shares = [v for k, v in metrics.items() if k.startswith("share.")]
    assert all(s >= 0 for s in shares)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert metrics["trace.missing_layers"] == 0
    for layer in ("model.lstm.ms_per_post", "autodiff.backward.ms_per_post",
                  "training.adagrad.ms_per_post", "evaluation.dev_eval.ms_per_epoch",
                  "text.skipgram_update.ms_per_epoch", "cli.predict.self_ms_per_post"):
        assert metrics[layer] > 0, layer
    assert 0 < metrics["model.forward_calls_per_post"] <= 1


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run("train", 0, cwd=bare)
        assert out.returncode != 0
        assert not out.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
