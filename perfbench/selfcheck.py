"""Fast self-check of the benchmark's output at tiny n.

    python3 perfbench/selfcheck.py

Runs every workload at tiny size (``--tiny``) with ``--trace 0`` and
``--trace 1`` and checks the last line of stdout against BENCHMARK.json:
exactly the keys correct/attempted/failed/metrics, every declared metric of
that mode with its unit and a finite value, ``correct`` true and no failed
call. Then checks that in a directory holding only BENCHMARK.json and
perfbench/ the benchmark exits non-zero without printing a result.

The file name keeps pytest from collecting it (pytest.ini_options only
collects test_*.py and bench_*.py under tests/ and benchmarks/).
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def run(command: list[str], args: list[str], cwd: Path = ROOT):
    """Run BENCHMARK.json's command from ``cwd``, with this interpreter in
    place of the named one."""
    return subprocess.run(
        [sys.executable, *command[1:], *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=TIMEOUT_S,
    )


def check_result(line: str, declared: list[dict]) -> list[str]:
    errs = []
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:80]!r}"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"keys {sorted(res)}")
    if res.get("correct") is not True:
        errs.append("correct is not true")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1):
        errs.append(f"attempted {res.get('attempted')!r}")
    if res.get("failed") != 0:
        errs.append(f"failed {res.get('failed')!r}")
    metrics = res.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errs.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            errs.append(f"{name}: {m}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            math.isfinite(v)
        ):
            errs.append(f"{name}: value {v!r}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"]
    failures = 0
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(cmd, ["--workload", w["name"], "--seed", "1",
                          "--seconds", "1", "--trace", str(trace), "--tiny"])
            lines = p.stdout.strip().splitlines()
            errs = [f"exit {p.returncode}"] if p.returncode else []
            errs += check_result(lines[-1], declared) if lines else ["no output"]
            failures += bool(errs)
            print(f"{w['name']} trace={trace}: {'ok' if not errs else errs}")

    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(cmd, ["--workload", spec["workloads"][0]["name"],
                      "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        ok = p.returncode != 0 and '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not ok
    print(f"without the program's sources: {'ok' if ok else 'ran anyway'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
