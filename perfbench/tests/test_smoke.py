"""Smoke runs of every workload, untraced and traced (several minutes).

    python3 -m pytest perfbench/tests/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = _bench(workload, 0)
    for name, unit in run.END_TO_END_UNITS.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in _declared("end_to_end")}
    failing = {line.split()[1] for line in lines
               if line.startswith("task ") and " FAILED: " in line}
    known = {line.split()[1] for line in lines
             if line.startswith("task ") and " KNOWN DEFECT: " in line}
    assert not failing
    assert result["correct"] and result["failed"] == 0
    # the only known defect: the NaN control passes check-rep with exit 0
    assert known <= {"control-nan"}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    lines, result = _bench(workload, 1)
    for name, unit in tracer.LAYER_METRICS:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any("tracing overhead" in line for line in lines)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in _declared("per_layer")}


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checkers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
