"""Smoke check of the benchmark at tiny sizes.

    python -m pytest -q bench/test_smoke.py

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json declares and fail no operation; the per-operation counts of
the traced run must repeat exactly; and without the package the benchmark
must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "kernel.eigensolves_per_op",
    "linalg.center_restrict.calls_per_op",
    "bounds.validations_per_op",
    "bounds.lsap_calls_per_op",
    "graphs.phi_calls_per_graph",
)


def run(workload: str, trace: int, run_py: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_no_failures(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] != 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["bound-api", "graph-screen"])
def test_per_op_counts_repeat(workload):
    first, second = (result(workload, 1)["metrics"] for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
