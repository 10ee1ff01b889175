"""Smoke test of the benchmark on its gated workloads at tiny n: the run
completes, every call is checked correct, and each metric that
BENCHMARK.json declares is reported with its unit. The traced runs also
show that the span hooks still fire: on the doubling coreset (no Spark),
and on the MapReduce driver's round 1, distributed radius and search."""
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_tiny(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
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
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_stream_outliers_tiny(trace):
    metrics = _run_tiny("stream-outliers", trace)
    if trace:
        assert metrics["streaming.doubling.process_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_mr_big_coreset_tiny(trace):
    metrics = _run_tiny("mr-big-coreset", trace)
    if trace:
        for name in ("mapreduce.round1.run_s",
                     "mapreduce.evaluate.radius_spark_s",
                     "core.search.evaluations"):
            assert metrics[name] > 0, name


def test_hook_targets_exist():
    """The benchmark's tracer and capture (``perfbench/spans.py``) wrap
    these program attributes by name and skip a missing one silently, so a
    rename would zero a per-layer metric with no other test failing. The
    capture binds the search's ``T``, ``weights`` and ``eps_hat`` by
    name."""
    from repro.core import search
    from repro.mapreduce import kcenter_outliers
    from repro.streaming import coreset_outliers, doubling

    targets = [
        (kcenter_outliers, "to_spark"),
        (kcenter_outliers, "run_round1"),
        (kcenter_outliers, "radius_spark"),
        (kcenter_outliers, "min_feasible_radius"),
        (coreset_outliers, "min_feasible_radius"),
        (search, "outliers_cluster"),
        (doubling, "cdist"),
        (doubling.DoublingCoreset, "process"),
    ]
    for owner, name in targets:
        assert callable(getattr(owner, name, None)), (owner.__name__, name)
    for owner in (kcenter_outliers, coreset_outliers):
        params = inspect.signature(owner.min_feasible_radius).parameters
        assert {"T", "weights", "eps_hat"} <= set(params), owner.__name__
