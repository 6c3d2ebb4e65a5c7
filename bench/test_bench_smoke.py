"""Smoke test of the benchmark: every workload runs a few checked ops.

Run with ``python -m pytest bench``; the full suite collects it too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 100     # MIN_OPS, reached although --seconds is 0
    assert result["failed"] == 0          # error_rate is 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = run_bench("cli-batch", trace=1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["cli.main.incl_ms"]["value"] > 0
    assert result["metrics"]["config.yaml_parse.incl_ms"]["value"] > 0
