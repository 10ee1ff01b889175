"""Benchmark for k-center with z outliers: end-to-end and per-layer.

    python3 perfbench/run.py --workload mr-large-n --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One closed-loop client in this process calls a public entry point of the
program, one call at a time, on inputs generated from ``--seed``:
``repro.mapreduce.kcenter_outliers.mr_kcenter_outliers`` (randomized) on a
local Spark session with ``local[nproc]``, or
``repro.streaming.coreset_outliers.coreset_stream_outliers`` without Spark.
The run sets up SETUP_REPS times (Spark session start, input generation,
one warm-up call) and then times warm calls for ``--seconds``. Every
answer is checked (``checks.py``); a call that raises or fails a check is
counted as failed, not fatal.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced calls with traced ones (``spans.py``), reads executor
task metrics from a Spark event log (``eventlog.py``) and reports the
per-layer metrics of the traced call with the median wall time, whose
layer self times add up to that call's wall time.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Records, spans and event logs go under ``.perfbench/`` at the
root of the checkout. The program is imported from ``src/`` of the same
checkout; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from workloads import WORKLOADS, tiny

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_PAIRS = 2  # untraced/traced call pairs per traced run
DRIVER_MEM = "2g"

MR_ROOT = "mapreduce.mr_kcenter_outliers"
STREAM_ROOT = "streaming.coreset_stream_outliers"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "radius": "distance",
    "driver_peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.to_spark_s": "s",
    "mapreduce.driver_self_s": "s",
    "mapreduce.round1.run_s": "s",
    "mapreduce.round1.task_s_max": "s",
    "mapreduce.round1.task_s_median": "s",
    "mapreduce.round1.shuffle_write_bytes": "B",
    "mapreduce.round1.result_bytes": "B",
    "mapreduce.round1.coreset_size": "count",
    "mapreduce.evaluate.radius_spark_s": "s",
    "mapreduce.evaluate.task_s_max": "s",
    "core.search.min_feasible_radius_s": "s",
    "core.search.evaluations": "count",
    "core.search.dist_matrix_s": "s",
    "core.outliers_cluster.eval_s_median": "s",
    "streaming.doubling.process_s": "s",
    "streaming.doubling.points_per_s": "1/s",
    "streaming.doubling.cdist_calls": "count",
    "streaming.doubling.peak_size": "count",
    "streaming.doubling.final_size": "count",
    "trace_overhead_s": "s",
}


def prepare_env() -> dict:
    """Point Spark, the JVM and the Python workers at this checkout. Must
    run before pyspark starts a JVM."""
    nproc = len(os.sched_getaffinity(0))
    master = f"local[{nproc}]"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    # The package is not installed: the Python workers import it from src/.
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", master,
        "--driver-memory", DRIVER_MEM,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--driver-java-options", shlex.quote(java_opts),
        "pyspark-shell",
    ])
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "master": master, "driver_memory": DRIVER_MEM}


def start_session(event_log: Path | None):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
    )
    if event_log is not None:
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", event_log.as_uri())
            .config("spark.eventLog.rolling.enabled", "false")
            .config("spark.eventLog.compress", "false")
        )
    s = b.getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


def shutdown_jvm() -> None:
    """Stop the py4j gateway and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Bench:
    """The closed-loop client of one workload."""

    def __init__(self, w, seed: int, trace: bool):
        from spans import Capture, Tracer

        self.w, self.seed = w, seed
        self.spark = None
        self.event_log: Path | None = None
        if trace and w.spark:
            self.event_log = OUT / "eventlog" / f"{w.name}-seed{seed}-{os.getpid()}"
            self.event_log.mkdir(parents=True, exist_ok=True)
        self.capture = Capture()
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[dict] = []
        self.inputs: list = []  # the point sets the calls cycle over
        self.fingerprints: list[dict[str, str]] = []
        self.reference: dict[int, tuple] = {}  # input -> (centers, radius)
        self.app_id: str | None = None  # Spark application of the timed calls

    @property
    def failed(self) -> int:
        return len({f["call"] for f in self.failures})

    def _fail(self, call: int, reason: str) -> None:
        self.failures.append({"call": call, "reason": reason})

    def setup(self, index: int) -> float:
        """Session start, input generation and one warm-up call on input
        ``index`` (its check excluded). Re-running it stops the previous
        session first."""
        from workloads import fingerprint, generate

        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        t0 = time.perf_counter()
        if self.w.spark:
            self.spark = start_session(self.event_log)
            if self.tracer is not None:
                self.tracer.sc = self.spark.sparkContext
        data = [generate(self.w, self.seed, i) for i in range(self.w.inputs)]
        t_setup = time.perf_counter() - t0
        fps = [
            {"points": fingerprint(X), "is_outlier": fingerprint(mask)}
            for X, mask in data
        ]
        if self.fingerprints and fps != self.fingerprints:
            self._fail(self.attempted + 1, "inputs differ between set-ups")
        self.fingerprints = fps
        self.inputs = [X for X, _ in data]
        dt = self.call(index, traced=False)
        return t_setup + (dt if dt is not None else 0.0)

    def _solve(self, X):
        from workloads import EPS_HAT, K, Z

        if self.w.spark:
            from repro.mapreduce.kcenter_outliers import mr_kcenter_outliers

            return mr_kcenter_outliers(
                self.spark, X, K, Z, self.w.ell, tau=self.w.tau(),
                eps_hat=EPS_HAT, randomized=True, seed=self.seed,
            )
        from repro.streaming.coreset_outliers import coreset_stream_outliers

        return coreset_stream_outliers(X, K, Z, tau=self.w.tau(), eps_hat=EPS_HAT)

    def call(self, index: int, traced: bool) -> float | None:
        """One public call on input ``index``; returns its wall time, or
        None if it failed."""
        self.attempted += 1
        cid = self.attempted
        try:
            with ExitStack() as stack:
                stack.enter_context(self.capture.installed())
                if traced:
                    self.tracer.call_id = cid
                    stack.enter_context(self.tracer.installed())
                    root = MR_ROOT if self.w.spark else STREAM_ROOT
                    stack.enter_context(
                        self.tracer.span(root, job="mapreduce.driver")
                    )
                t0 = time.perf_counter()
                res = self._solve(self.inputs[index])
                dt = time.perf_counter() - t0
        except Exception as e:  # counted in error_rate; the run goes on
            self._fail(cid, f"raised {type(e).__name__}: {e}")
            self.capture.pop()
            return None
        return dt if self._check(cid, index, res) else None

    def _check(self, cid: int, index: int, res) -> bool:
        import numpy as np
        from checks import check_call
        from workloads import K, Z

        X = self.inputs[index]
        n = len(X)
        if self.w.spark:
            reported = res.radius
            fails = [] if res.coreset_weight == n else [
                f"coreset weight {res.coreset_weight} != n={n}"
            ]
        else:
            reported = None
            fails = [] if res.n_processed == n else [
                f"processed {res.n_processed} of n={n} points"
            ]
        radius, more = check_call(
            X, res.centers, reported, self.capture.pop(), k=K, z=Z
        )
        fails += more
        ref = self.reference.setdefault(index, (np.array(res.centers), radius))
        if not (np.array_equal(res.centers, ref[0]) and radius == ref[1]):
            fails.append("answer differs from the first call on this input")
        for f in fails:
            self._fail(cid, f)
        return not fails

    def stop(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        if self.w.spark:
            shutdown_jvm()


def per_layer(bench: Bench, traced: list, untraced: list) -> tuple[dict, dict]:
    """Per-layer metrics of the traced call with the (lower) median wall
    time, and that call's self-time breakdown."""
    from eventlog import layer_metrics, read_tasks

    tr = bench.tracer
    m = {name: 0.0 for name in PER_LAYER}
    if not traced:
        return m, {}
    dt, cid = sorted(traced)[(len(traced) - 1) // 2]

    def total(name):
        return sum(tr.totals(cid, name))

    selfs = tr.self_times(cid)
    m["data.to_spark_s"] = total("data.to_spark")
    m["mapreduce.driver_self_s"] = selfs.get(MR_ROOT, 0.0)
    m["mapreduce.round1.run_s"] = total("mapreduce.round1")
    m["mapreduce.round1.coreset_size"] = tr.attrs(
        cid, "mapreduce.round1").get("coreset_size", 0)
    m["mapreduce.evaluate.radius_spark_s"] = total("mapreduce.evaluate")
    m["core.search.min_feasible_radius_s"] = total(
        "core.search.min_feasible_radius")
    evals = tr.totals(cid, "core.outliers_cluster")
    m["core.search.evaluations"] = len(evals)
    m["core.search.dist_matrix_s"] = total("core.search.dist_matrix")
    m["core.outliers_cluster.eval_s_median"] = (
        statistics.median(evals) if evals else 0.0
    )
    process = total("streaming.doubling.process")
    pa = tr.attrs(cid, "streaming.doubling.process")
    m["streaming.doubling.process_s"] = process
    m["streaming.doubling.points_per_s"] = (
        pa["points"] / process if process > 0 else 0.0
    )
    m["streaming.doubling.cdist_calls"] = tr.counters[cid][
        "streaming.doubling.cdist_calls"]
    m["streaming.doubling.peak_size"] = pa.get("peak_size", 0)
    m["streaming.doubling.final_size"] = pa.get("final_size", 0)
    if bench.event_log is not None:
        tasks = read_tasks(bench.event_log / bench.app_id)
        m.update(layer_metrics(tasks, cid))
    if untraced:
        m["trace_overhead_s"] = dt - statistics.median_low(
            [t for t, _ in untraced])
    breakdown = {"call": cid, "solve_s": dt, "self_s": selfs}
    return m, breakdown


def run_one(args) -> int:
    env = prepare_env()
    import numpy as np
    import pyspark

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    bench = Bench(w, args.seed, bool(args.trace))
    setups, timed, traced = [], [], []
    try:
        for rep in range(SETUP_REPS):
            setups.append(bench.setup(rep % w.inputs))
        # Calls cycle over the inputs until --seconds have passed and, in a
        # timed run, every input has been called once.
        t_end = time.perf_counter() + args.seconds
        n = 0
        while n < (MIN_PAIRS if args.trace else w.inputs) or (
            time.perf_counter() < t_end
        ):
            index = n % w.inputs
            n += 1
            dt = bench.call(index, traced=False)
            if dt is not None:
                timed.append((dt, bench.attempted))
            if args.trace:
                dt = bench.call(index, traced=True)
                if dt is not None:
                    traced.append((dt, bench.attempted))
        bench.app_id = (
            bench.spark.sparkContext.applicationId if bench.spark else None
        )
    finally:
        bench.stop()  # also flushes the event log

    env.update({
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "spark": pyspark.__version__,
        "numpy": np.__version__, "workload": w.name, "n": w.n,
        "ell": w.ell if w.spark else None, "tau": w.tau(), "seed": args.seed,
        "input_fingerprints": bench.fingerprints, "trace": args.trace,
        "seconds": args.seconds,
    })
    record = {"env": env, "setup_s_samples": setups,
              "solve_s_samples": [t for t, _ in timed],
              "failures": bench.failures}
    if args.trace:
        metrics, breakdown = per_layer(bench, traced, timed)
        units = PER_LAYER
        record["breakdown"] = breakdown
        record["traced_solve_s_samples"] = [t for t, _ in traced]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(
                t for t, _ in timed
            ) if timed else 0.0,
            "radius": statistics.median(
                r for _, r in bench.reference.values()
            ) if bench.reference else 0.0,
            "driver_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        units = END_TO_END
    record["metrics"] = metrics

    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{base}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{base}.json").write_text(
            json.dumps(bench.tracer.dump())
        )

    print(f"# workload={w.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()
                     if k not in ("workload", "seed", "trace")))
    if args.trace:
        print(f"traced solve_s = {breakdown.get('solve_s', 0.0):.6f} s "
              f"(call {breakdown.get('call')}), layer self times:")
        for name, v in sorted(breakdown.get("self_s", {}).items(),
                              key=lambda kv: -kv[1]):
            tag = " (remainder)" if name in (MR_ROOT, STREAM_ROOT) else ""
            print(f"  {name}{tag} = {v:.6f} s")
        print(f"  sum = {sum(breakdown.get('self_s', {}).values()):.6f} s")
    else:
        print(f"setup_s samples: {setups}")
        print(f"solve_s over {len(timed)} warm calls: "
              f"{[t for t, _ in timed]}")
    for name, v in metrics.items():
        print(f"{name} = {v} {units[name]}")
    rate = bench.failed / bench.attempted
    print(f"error_rate = {rate} ({bench.failed} failed / "
          f"{bench.attempted} attempted)")
    for f in bench.failures:
        print(f"FAILED call {f['call']}: {f['reason']}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (fresh JVM and peak RSS); the
    final line merges their results, metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            print(f"workload {name} exited with {p.returncode}")
            return p.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink n for the schema self-check")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
