"""Smoke test of the benchmark on its streaming workload at tiny n (no
Spark): the run completes, every call is checked correct, and each metric
that BENCHMARK.json declares is reported with its unit. The traced run
also shows that the span hooks on the doubling coreset still fire."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_stream_outliers_tiny(trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-outliers",
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if trace:
        assert res["metrics"]["streaming.doubling.process_s"]["value"] > 0
