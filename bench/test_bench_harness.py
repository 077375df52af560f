"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest bench/test_bench_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def tiny_run(workload, trace):
    """(stdout lines, final JSON result) of one tiny run."""
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_no_failure(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio: 0/") for line in lines)
    assert any(line.startswith("machine: ") for line in lines)


def test_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, result = tiny_run("fig4_qubit", 1)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["tradeoff.points"] > 0
    assert result["metrics"]["tradeoff.m_share"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
