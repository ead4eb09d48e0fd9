"""Smoke test of the benchmark itself: every workload, both modes, small N.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run passes its oracle, fails no op, and emits every
metric BENCHMARK.json names with its unit; that a checkout holding only
the benchmark exits non-zero without a result; and that the run refuses
an environment that switches off the program's fast paths.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: A small data set; ``--seconds`` this short runs the 1000-request floor.
SMALL = ["--segments", "1024", "--seconds", "0.1"]


def _run(args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3",
                 "--trace", str(trace), *SMALL])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    run = json.loads(next(line for line in proc.stdout.splitlines()
                          if line.startswith("# run "))[len("# run "):])
    assert run["checked_answers"] > 0 and run["wrong_answers"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    if trace and workload == "serve-bulk":
        coverage = result["metrics"]["pool.phase_coverage"]["value"]
        assert 0.9 <= coverage <= 1.05
    if trace and workload.startswith("embedded"):
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_checkout_without_program_fails_without_result():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("var", ["REPRO_EXACT_ONLY", "REPRO_SCALAR_KERNELS"])
def test_refuses_slow_path_environment(var):
    env = dict(os.environ, **{var: "1"})
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], env=env, timeout=60)
    assert proc.returncode == 2
    assert not proc.stdout.strip()
