"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs every workload at toy size in both modes and checks that each run
passes its own correctness checks, emits exactly the metrics that
BENCHMARK.json names, and repeats its deterministic counters.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, HERE)
import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counters_repeat_across_runs():
    runs = [bench("switch-planted", 1) for _ in range(2)]
    got = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in runs]
    for name in tracer.DETERMINISTIC:
        assert got[0][name] == got[1][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("learn-patches", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
