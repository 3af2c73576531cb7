"""Tests of the benchmark itself (not part of the repository's test suite):

    python3 -m pytest perfbench

Every workload runs end to end at a tiny length and answers correctly,
two traced runs of one seed report identical exact counters, and the
benchmark refuses to run without the repository's sources.
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
#: Per-layer metrics that are counts of work, not times: equal on every
#: run of one seed.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")} | {
    "tables.cache.hot_hit_ratio",
    "pipeline.session.splice_share",
}


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_measured(workload):
    metrics = _result(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (_result(workload, 1)["metrics"] for _ in range(2))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: first[k]["value"] for k in EXACT} == {k: second[k]["value"] for k in EXACT}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
