"""Smoke test of the benchmark: every workload at a small fixed count.

    python3 -m pytest flickbench/test_smoke.py -q

Checks that each workload emits every metric ``BENCHMARK.json`` names,
with its unit, that its output checks pass with no failed operation,
that counted bytes repeat exactly for one seed, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Per-layer metrics that must repeat exactly for one seed.
EXACT = ("stubs.py_kB", "stubs.c_kB", "mir.ops_built",
         "mir.ops_after_passes", "wire.request_bytes_per_call",
         "wire.reply_bytes_per_call")


def run(workload, trace, seed=7, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "flickbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = result_of(run(workload, trace))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_counted_bytes_repeat_exactly():
    first = result_of(run("bulk_rpc", 1))["metrics"]
    second = result_of(run("bulk_rpc", 1))["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    e2e = [result_of(run("bulk_rpc", 0))["metrics"]["stub_kB"]["value"]
           for _ in range(2)]
    assert e2e[0] == e2e[1]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "flickbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("small_rpc", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
