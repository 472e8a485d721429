"""Smoke test of the benchmark itself.

    python -m pytest perfbench/test_benchmark.py

Runs every workload at a tiny length, untraced and traced, and checks the
result line against ``BENCHMARK.json``: every end-to-end metric is printed
with its unit, and the traced run fills every per-layer metric, reports no
missing wrapper and shows the workload's expected dominant layer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DOMINANT = {
    "predict-cli": "import.ghlpc.cli",
    "verify-exact": "verify.solve_ivp.second",
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    report, result = out.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    return json.loads(report)["report"], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _, result = _result(workload, 0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    report, result = _result(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert report["missing_wrappers"] == []
    assert report["top_self_s_per_pass"][0][0] == DOMINANT[workload]
    assert result["metrics"]["trace.coverage"]["value"] > 0.8


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
