"""The experiment driver: the data series of Figures 2-8 (T1-T7) from one
config table and one sweep.

Every figure of the paper's evaluation (Section 5) is the same loop: build
each dataset, and for every repeat and every cell of the parameter sweep
run one algorithm; then normalize each radius to the best radius found for
that dataset and average over the repeats. ``TABLES`` holds one entry per
figure, with the sweep and the defaults that produced the committed
``results/*.csv``; ``run`` is the loop; ``save`` writes the CSV and, next
to it, a JSON record of the run (config, git SHA and the per-repeat rows
before averaging).

Run: ``python -m repro.experiments T1 [T3 ...] [--n N] [--repeats R]
[--seed S]``. Tests change any other value of an entry with
``dataclasses.replace`` and call ``run`` on the result.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.metric import radius
from repro.core.result import Result
from repro.core.search import charikar
from repro.data.datasets import DATASETS, add_outliers, inflate
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.kcenter_outliers import (
    experiment_tau,
    mr_kcenter_outliers,
    sequential_coreset_outliers,
)
from repro.streaming.base_outliers import base_stream_outliers
from repro.streaming.base_stream import base_stream_kcenter
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.coreset_stream import coreset_stream_kcenter


def spark_session(app: str = "repro") -> SparkSession:
    """The one local SparkSession builder, for the driver and the tests'
    ``spark`` fixture: master ``SPARK_MASTER`` (default local[*]), driver
    memory ``SPARK_DRIVER_MEM`` (default 2g, the benchmark's), UI off. The
    JVM reads master and memory from ``PYSPARK_SUBMIT_ARGS`` when it
    launches, so they are set there (unless already set) before the first
    session. The algorithms use only the RDD API, with the partition
    count given explicitly, so no Spark SQL setting is made."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '2g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    s = SparkSession.builder.appName(app).getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


@dataclass(frozen=True)
class Cell:
    """What one sweep cell runs on: one repeat's input of one dataset."""

    t: Table
    spark: SparkSession | None
    X: np.ndarray
    mask: np.ndarray  # True on the injected outliers
    k: int
    seed: int  # the repeat's seed for random partitioning


@dataclass(frozen=True)
class Table:
    """One figure's sweep.

    For each dataset of ``names`` and each inflation factor of ``hs``, the
    input is built once (``make_dataset``). For each of ``repeats`` repeats
    it is shuffled (if ``shuffle``), and ``cell`` runs once per entry of
    ``points``; its keyword arguments are the entry. The CSV holds the
    ``group`` columns and the ``values`` averaged over the repeats
    (``tau`` is taken, not averaged); a ``ratio`` value is the radius over
    the best radius found for the dataset across the whole sweep (§5).
    """

    stem: str  # results/<stem>.csv and .json
    cell: Callable[..., dict]
    points: tuple[dict, ...]
    group: tuple[str, ...]
    values: tuple[str, ...]
    k: int | dict[str, int]
    z: int = 0
    hs: tuple[int, ...] = (1,)
    shuffle: bool = True
    spark: bool = False
    names: tuple[str, ...] = ("higgs", "power", "wiki")
    n: int = 20_000
    repeats: int = 1
    seed: int = 0


def grid(**axes) -> tuple[dict, ...]:
    """The cells of the cartesian product of ``axes``, the last varying
    fastest."""
    return tuple(
        dict(zip(axes, vals)) for vals in itertools.product(*axes.values())
    )


def _row(c: Cell, res: Result) -> dict:
    """The one flattening of an entry point's record into a sweep row: its
    fields but the centers, the search's r, evaluations and trace, and the
    committed CSVs' time columns from ``res.timings`` (EXPERIMENTS.md
    lists which layer each column reads). An entry point that evaluates
    no radius gets the z-radius of its centers over the cell's input."""
    t, s = res.timings, res.search
    row = {f: v for f, v in vars(res).items()
           if v is not None and f not in ("centers", "search")}
    if res.radius is None:
        row["radius"] = radius(c.X, res.centers, c.t.z)
    if s is not None:
        row.update(r_search=s.r, search_evaluations=s.evaluations,
                   search_trace=s.trace)
    if "pass" in t:  # a stream: the pass, then the step on what it kept
        row.update(t_stream=t["pass"], t_final=t["final"],
                   throughput=res.n_processed / t["pass"])
    if "round1" in t:  # round 1 builds the coreset, round 2 solves on it
        row.update(t_coreset=t["round1"], t_total=t["round1"] + t["round2"])
        row["t_cluster" if s else "t_final"] = t["round2"]
    return {**row, "time_s": sum(t.values())}


def _mr_kcenter(c: Cell, *, ell: int, mu: int) -> dict:
    res = mr_kcenter(c.spark, c.X, c.k, ell, tau=mu * c.k)
    return {"tau": mu * c.k, **_row(c, res)}


def _mr_run(c: Cell, ell: int, tau: int, randomized: bool) -> dict:
    """The randomized variant partitions at random; the deterministic one
    adversarially, every injected outlier in one subset (§5.2)."""
    res = mr_kcenter_outliers(
        c.spark, c.X, c.k, c.t.z, ell, tau=tau, randomized=randomized,
        outlier_mask=None if randomized else c.mask, seed=c.seed,
    )
    return {"tau": tau, **_row(c, res)}


def _mr_outliers(c: Cell, *, variant: str, mu: float, ell: int) -> dict:
    randomized = variant == "randomized"
    tau = experiment_tau(mu, c.k, c.t.z, ell, randomized=randomized)
    return _mr_run(c, ell, tau, randomized)


def _mr_fixed_union(c: Cell, *, mu: float, ell: int) -> dict:
    """Per-subset budget giving the union mu*(ell_max*k + 6z) at every ell,
    ell_max the sweep's largest; capped below the subset size so GMM stays
    well-defined."""
    ell_max = max(p["ell"] for p in c.t.points)
    union = int(mu * (ell_max * c.k + 6 * c.t.z))
    row = _mr_run(c, ell, min(math.ceil(union / ell), len(c.X) // ell), True)
    return {**row, "union": row["coreset_size"]}


_STREAMS = {
    "CORESETSTREAM": lambda c, mu: coreset_stream_kcenter(
        c.X, c.k, tau=mu * c.k
    ),
    "BASESTREAM": lambda c, m: base_stream_kcenter(c.X, c.k, m=m),
    "CORESETOUTLIERS": lambda c, mu: coreset_stream_outliers(
        c.X, c.k, c.t.z, tau=mu * (c.k + c.t.z)
    ),
    "BASEOUTLIERS": lambda c, m: base_stream_outliers(c.X, c.k, c.t.z, m=m),
}


def _stream(c: Cell, *, algo: str, param: int) -> dict:
    return _row(c, _STREAMS[algo](c, param))


def _sequential(c: Cell, *, mu: int) -> dict:
    """mu = 0 is CHARIKARETAL on the whole input; mu >= 1 the coreset
    pipeline with ell = 1 and tau = mu*(k+z)."""
    if mu == 0:
        return {"algo": "CHARIKARETAL", **_row(c, charikar(c.X, c.k, c.t.z))}
    res = sequential_coreset_outliers(c.X, c.k, c.t.z, tau=mu * (c.k + c.t.z))
    algo = "MALKOMESETAL" if mu == 1 else f"OURS(mu={mu})"
    return {"algo": algo, **_row(c, res)}


# The paper's k per dataset for the no-outlier experiments (Figures 2, 3).
PAPER_K = {"higgs": 50, "power": 100, "wiki": 60}
_MR = ("t_coreset", "t_cluster", "t_total")
_STREAM_VALUES = ("space", "radius", "ratio", "throughput")
_POW2 = (1, 2, 4, 8, 16)

# Scaled down (EXPERIMENTS.md): outliers at k=10, z=100, ell=8, not 20/200/16.
# T5, T6 keep one input order; their repeats differ in the random partition.
TABLES: dict[str, Table] = {
    "T1": Table(
        "table1_mr_kcenter",
        _mr_kcenter,
        grid(ell=(2, 4, 8, 16), mu=(1, 2, 4, 8)),
        ("dataset", "ell", "mu"),
        ("tau", "coreset_size", "radius", "ratio", "t_coreset", "t_final"),
        k=PAPER_K, spark=True,
    ),
    "T2": Table(
        "table2_stream_kcenter",
        _stream,
        grid(algo=("CORESETSTREAM",), param=_POW2)
        + grid(algo=("BASESTREAM",), param=_POW2),
        ("dataset", "algo", "param"),
        _STREAM_VALUES,
        k=PAPER_K,
    ),
    "T3": Table(
        "table3_mr_outliers",
        _mr_outliers,
        grid(
            variant=("deterministic", "randomized"), mu=(1, 2, 4, 8), ell=(8,)
        ),
        ("dataset", "variant", "mu"),
        ("tau", "coreset_size", "radius", "ratio", *_MR),
        k=10, z=100, n=40_000, repeats=3, spark=True,
    ),
    "T4": Table(
        "table4_stream_outliers",
        _stream,
        grid(algo=("CORESETOUTLIERS",), param=_POW2)
        + grid(algo=("BASEOUTLIERS",), param=_POW2),
        ("dataset", "algo", "param"),
        _STREAM_VALUES,
        k=10, z=100,
    ),
    "T5": Table(
        "table5_scale_size",
        _mr_outliers,
        grid(variant=("randomized",), mu=(8,), ell=(8,)),
        ("dataset", "h", "n"),
        ("tau", "radius", *_MR),
        k=10, z=100, hs=(1, 2, 4, 8), spark=True, shuffle=False,
    ),
    "T6": Table(
        "table6_scale_procs",
        _mr_fixed_union,
        grid(mu=(8,), ell=_POW2),
        ("dataset", "ell"),
        ("tau", "union", "radius", *_MR),
        k=10, z=100, n=40_000, repeats=3, spark=True, shuffle=False,
    ),
    "T7": Table(
        "table7_sequential",
        _sequential,
        grid(mu=(0, 1, 2, 4, 8)),
        ("dataset", "algo", "mu"),
        ("time_s", "radius", "ratio"),
        k=10, z=100, n=3_000,
    ),
}


def make_dataset(
    t: Table, i: int, h: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Dataset ``t.names[i]`` at size ``t.n``, inflated ``h`` times (§5.3)
    and with ``t.z`` injected outliers (§5.2): ``(points, outlier_mask)``."""
    base = DATASETS[t.names[i]](t.n, seed=t.seed + i)
    X = inflate(base, h, seed=t.seed + 13 * h)
    return add_outliers(X, t.z, seed=t.seed + 100 + i)


def shuffled(
    X: np.ndarray, mask: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Permuted copies of the points and their outlier mask. The paper
    shuffles the input between runs, which randomizes GMM's arbitrary
    first center and the stream order."""
    perm = np.random.default_rng(seed).permutation(len(X))
    return X[perm], mask[perm]


def add_ratio(df: pd.DataFrame, group_cols: list[str]) -> pd.DataFrame:
    """Empirical approximation ratio (§5): radius / min(radius) within each
    group of the sweep."""
    df = df.copy()
    best = df.groupby(group_cols)["radius"].transform("min")
    df["ratio"] = (df["radius"] / best.replace(0.0, np.nan)).fillna(1.0)
    return df


def run(
    t: Table, spark: SparkSession | None = None
) -> tuple[pd.DataFrame, list[dict]]:
    """Sweep ``t``. Returns ``(table, rows)``: the CSV's frame, and one
    row per (dataset, h, repeat, cell) with every field the algorithm's
    result carries."""
    rows = []
    for i, name in enumerate(t.names):
        k = t.k if isinstance(t.k, int) else t.k[name]
        for h in t.hs:
            X, mask = make_dataset(t, i, h)
            for rep in range(t.repeats):
                if t.shuffle:
                    Xr, mr = shuffled(X, mask, t.seed + 7 * rep)
                else:
                    Xr, mr = X, mask
                c = Cell(t, spark, Xr, mr, k, t.seed + 31 * rep)
                for point in t.points:
                    rows.append({
                        "dataset": name, "h": h, "n": len(X), "rep": rep,
                        **point, **t.cell(c, **point),
                    })
    df = pd.DataFrame(rows)
    if "ratio" in t.values:
        df = add_ratio(df, ["dataset"])
    table = df.groupby(list(t.group), as_index=False).agg(
        **{v: (v, "first" if v == "tau" else "mean") for v in t.values}
    )
    rows = df.astype(object).where(df.notna(), None).to_dict("records")
    return table, rows


def git_sha() -> str | None:
    """HEAD of the checkout this module is in; None outside a git tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def save(t: Table, table: pd.DataFrame, rows: list[dict]) -> str:
    """Write ``results/<stem>.csv`` and the run record
    ``results/<stem>.json``."""
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", t.stem)
    table.to_csv(path + ".csv", index=False)
    config = {f.name: getattr(t, f.name) for f in fields(t)}
    record = {
        "config": {**config, "cell": t.cell.__name__},
        "git_sha": git_sha(),
        "rows": rows,
    }
    with open(path + ".json", "w") as f:
        json.dump(record, f, indent=1, default=lambda o: o.item())
    return path + ".csv"


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the rows of Figures 2-8 (T1-T7) into results/.",
    )
    ap.add_argument("tables", nargs="+", choices=sorted(TABLES))
    ap.add_argument("--n", type=int, help="points per dataset (T5: base size)")
    ap.add_argument("--repeats", type=int)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)
    overrides = {
        a: getattr(args, a)
        for a in ("n", "repeats", "seed")
        if getattr(args, a) is not None
    }
    tables = {key: replace(TABLES[key], **overrides) for key in args.tables}
    spark = (
        spark_session("repro-experiments")
        if any(t.spark for t in tables.values()) else None
    )
    try:
        for key, t in tables.items():
            table, rows = run(t, spark)
            print(f"\n== {key} ({t.stem}) ==")
            print(table.round(3).to_string(index=False))
            print("saved:", save(t, table, rows))
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
