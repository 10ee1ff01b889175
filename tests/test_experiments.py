"""Smoke + sanity tests for the experiment driver at tiny scale: each of
the seven tables (T1-T7) must run end-to-end, return the expected row
structure, and satisfy basic invariants (ratios >= 1, expected sweep cells
present); the command line writes the CSV and its run record."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd

import repro
from repro.experiments import (
    TABLES,
    add_ratio,
    grid,
    make_dataset,
    run,
    save,
    shuffled,
)

ROOT = Path(__file__).resolve().parents[1]


def tiny(key, spark=None, **overrides):
    """Table ``key`` with some values replaced: its CSV frame."""
    return run(replace(TABLES[key], **overrides), spark)[0]


class TestCommon:
    def test_add_ratio_min_is_one(self):
        df = pd.DataFrame(
            {"dataset": ["a", "a", "b", "b"], "radius": [2.0, 4.0, 1.0, 3.0]}
        )
        out = add_ratio(df, ["dataset"])
        assert out[out.dataset == "a"].ratio.min() == 1.0
        assert out[out.dataset == "b"].ratio.max() == 3.0

    def test_make_datasets_masks(self):
        X, mask = make_dataset(replace(TABLES["T3"], n=300, z=5, seed=1), 0)
        assert len(X) == 305 and mask.sum() == 5

    def test_shuffled_is_permutation(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        Y, mask = shuffled(X, X[:, 0] >= 14, 3)
        assert sorted(map(tuple, Y.tolist())) == sorted(map(tuple, X.tolist()))
        # the mask is permuted with its points
        np.testing.assert_array_equal(mask, Y[:, 0] >= 14)


class TestT1:
    def test_runs_and_ratios(self, spark):
        df = tiny(
            "T1", spark, n=600, k=5, points=grid(ell=(2,), mu=(1, 2)),
            names=("higgs",),
        )
        assert set(df.columns) >= {"dataset", "ell", "mu", "radius", "ratio"}
        assert len(df) == 2
        assert (df.ratio >= 1.0 - 1e-12).all()
        assert (df.coreset_size > 0).all()


class TestT2:
    def test_runs_and_structure(self):
        df = tiny(
            "T2", n=500, k=5, names=("power",),
            points=grid(algo=("CORESETSTREAM", "BASESTREAM"), param=(1, 2)),
        )
        assert set(df.algo) == {"CORESETSTREAM", "BASESTREAM"}
        assert len(df) == 4
        assert (df.throughput > 0).all()
        assert (df.ratio >= 1.0 - 1e-12).all()


class TestT3:
    def test_runs_both_variants(self, spark):
        df = tiny(
            "T3", spark, n=600, k=3, z=8, names=("higgs",), repeats=1,
            points=grid(
                variant=("deterministic", "randomized"), mu=(1, 2), ell=(4,)
            ),
        )
        assert set(df.variant) == {"deterministic", "randomized"}
        assert len(df) == 4
        assert (df.t_total > 0).all()
        assert (df.ratio >= 1.0 - 1e-12).all()

    def test_deterministic_repeats_differ(self, spark):
        """Each repeat shuffles the input (and the outlier mask with it),
        so the deterministic variant's repeats are distinct runs; the
        adversarial partition still puts all z outliers in subset 0."""
        t = replace(
            TABLES["T3"], n=600, k=3, z=8, names=("higgs",), repeats=2,
            points=grid(variant=("deterministic",), mu=(1,), ell=(4,)),
        )
        a, b = run(t, spark)[1]
        assert a["r_search"] != b["r_search"]
        assert a["part_sizes"][0] == b["part_sizes"][0] == 8 + 600 // 4


class TestT4:
    def test_runs_and_space_ordering(self):
        df = tiny(
            "T4", n=500, k=3, z=8, names=("wiki",),
            points=grid(algo=("CORESETOUTLIERS",), param=(1, 2))
            + grid(algo=("BASEOUTLIERS",), param=(1,)),
        )
        ours = df[df.algo == "CORESETOUTLIERS"]
        base = df[df.algo == "BASEOUTLIERS"]
        # the paper's central claim: baseline burns more space at m=1 than
        # ours at mu in {1,2}
        assert base.space.min() > ours.space.max()


class TestT5:
    def test_runs_and_sizes(self, spark):
        df = tiny(
            "T5", spark, n=300, hs=(1, 2), k=3, z=5, names=("higgs",),
            points=grid(variant=("randomized",), mu=(2,), ell=(2,)),
        )
        assert list(df.h) == [1, 2]
        assert df.n.iloc[1] == 2 * 300 + 5
        assert (df.t_total > 0).all()


class TestT6:
    def test_runs_fixed_union(self, spark):
        df = tiny(
            "T6", spark, n=600, k=3, z=5, names=("power",), repeats=1,
            points=grid(mu=(2,), ell=(1, 2)),
        )
        assert list(df.ell) == [1, 2]
        assert (df.t_coreset > 0).all() and (df.t_cluster > 0).all()


class TestT7:
    def test_runs_all_algorithms(self):
        df = tiny(
            "T7", n=250, k=3, z=5, points=grid(mu=(0, 1, 2)),
            names=("higgs",),
        )
        assert set(df.algo) == {"CHARIKARETAL", "MALKOMESETAL", "OURS(mu=2)"}
        assert (df.time_s > 0).all()
        assert (df.ratio >= 1.0 - 1e-12).all()

    def test_coreset_speedup_over_charikar(self):
        """The Figure 8 headline at small scale: coreset preprocessing is
        faster than CHARIKARETAL on the full sample."""
        df = tiny(
            "T7", n=600, k=3, z=10, points=grid(mu=(0, 1)), names=("power",)
        )
        t_ck = df[df.algo == "CHARIKARETAL"].time_s.iloc[0]
        t_mk = df[df.algo == "MALKOMESETAL"].time_s.iloc[0]
        assert t_mk < t_ck


def test_cli_writes_csv_and_run_record(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    p = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "T2", "--n", "400",
         "--repeats", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr
    out = tmp_path / "results" / "table2_stream_kcenter"
    committed = ROOT / "results" / "table2_stream_kcenter.csv"
    header = out.with_suffix(".csv").read_text().splitlines()[0]
    assert header == committed.read_text().splitlines()[0]
    record = json.loads(out.with_suffix(".json").read_text())
    assert record["config"]["n"] == 400 and record["config"]["repeats"] == 1
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    assert record["git_sha"] == (sha.stdout.strip() or None)
    # one raw row per (dataset, repeat, cell), before averaging
    assert len(record["rows"]) == 3 * len(TABLES["T2"].points)


def test_run_record_carries_search_trace(spark, tmp_path, monkeypatch):
    """The MR outliers rows (T3, T5, T6) and the T7 rows of the run record
    hold the radius search's (r, uncovered weight, centers) per probe; the
    returned radius is the smallest feasible probe."""
    monkeypatch.chdir(tmp_path)
    small = dict(n=300, k=3, z=5, names=("power",), repeats=1)
    for t in (
        replace(TABLES["T6"], points=grid(mu=(2,), ell=(2,)), **small),
        replace(TABLES["T7"], points=grid(mu=(0, 2)), **small),
    ):
        save(t, *run(t, spark))
        record = tmp_path / "results" / f"{t.stem}.json"
        rows = json.loads(record.read_text())["rows"]
        assert len(rows) == len(t.points)
        for row in rows:
            trace = row["search_trace"]
            assert len(trace) == row["search_evaluations"] >= 1
            assert all(len(probe) == 3 for probe in trace)
            assert row["r_search"] == min(
                r for r, unc_w, _ in trace if unc_w <= t.z
            )


def test_spark_session_default_driver_memory():
    """With neither ``SPARK_DRIVER_MEM`` nor ``PYSPARK_SUBMIT_ARGS`` set,
    the session's driver gets 2g, the benchmark's memory."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_DRIVER_MEM", "PYSPARK_SUBMIT_ARGS")}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    code = (
        "from repro.experiments import spark_session\n"
        "s = spark_session('driver-mem')\n"
        "print(s.sparkContext.getConf().get('spark.driver.memory'))\n"
        "s.stop()\n"
    )
    p = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split()[-1] == "2g"
