"""Smoke test of the benchmark: every workload, briefly, both modes.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` (about a
minute).  Each run must succeed, check its outputs correct, and print
exactly the metrics ``BENCHMARK.json`` declares, by name and unit.
Outside a checkout (no ``src/``) the benchmark must fail without a
result line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def _spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in _spec()["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    spec = _spec()
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "engine_cold", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
