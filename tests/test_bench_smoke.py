"""The benchmark runs each of its workloads, and its own tests pass, on the package as it stands.

A package change that breaks a workload's run or its output check would
otherwise show only when the benchmark itself is run. ``vprbench/run.py``
writes ``.vprbench_out/`` under its root, so each run works on a copy of the
benchmark files and the sources in a temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
TIMEOUT_S = 600


@pytest.fixture(scope="module")
def bench_tree(tmp_path_factory):
    tree = tmp_path_factory.mktemp("bench")
    for name in ("src", "vprbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".vprbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_its_checks_pass(bench_tree, workload):
    cmd = [sys.executable, "vprbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bench_tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr


def test_benchmark_tests_pass(bench_tree):
    cmd = [sys.executable, "-m", "pytest", "vprbench", "-q"]
    proc = subprocess.run(cmd, cwd=bench_tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stdout[-4000:]
