"""Smoke test of the benchmark at tiny size; it has no timing bound.

Every workload runs untraced and traced, reports exactly the metrics that
BENCHMARK.json names with their units, and passes every output check.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(workload, trace, tmp_path):
    record = harness.run_workload(
        workload, seed=0, seconds=0.2, trace=trace, sizes=workloads.TINY, out_dir=tmp_path
    )
    result = harness.result_line(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads((tmp_path / f"result-{workload}-seed0-trace{int(trace)}.json").read_text())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "backbone_train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
