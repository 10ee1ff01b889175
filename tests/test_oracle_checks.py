"""DuckDB-oracle checks: what the RDD layer returns (round 1's partition
sizes, weights and coreset rows; the distributed radius and top distances;
an MR driver's radius) equals SQL on DuckDB over the input table
``(id, pid, x0..x{d-1})`` (``tests.oracle``)."""
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

import repro
from repro.core.gmm import gmm
from repro.core.metric import min_dist, radius
from repro.data.datasets import add_outliers, higgs_like, to_spark
from repro.mapreduce.evaluate import radius_spark, top_distances
from repro.mapreduce.kcenter_outliers import mr_kcenter_outliers
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import run_round1
from tests.oracle import assert_equivalent, points_table, query

D, ELL, TAU, K = 7, 5, 20, 5
COUNTS_SQL = "SELECT pid AS pid, count(*) AS n FROM pts GROUP BY pid"


@pytest.fixture(scope="module")
def run(spark):
    """Round 1 over higgs_like(3000) plus 50 outliers in ELL random subsets,
    and K centers by GMM on the coreset union, as ``mr_kcenter`` picks them.
    ``to_spark`` places each subset whole in one block, so the outliers are
    spread over the blocks here; ``TestAdversarialBlock`` puts all of them
    in one block."""
    X, mask = add_outliers(higgs_like(3000, seed=60), 50, seed=60)
    pids = make_pids(len(X), ELL, "random", seed=60)
    blocks = to_spark(spark, X, pids=pids)
    r1 = run_round1(blocks, ELL, TAU)
    centers = gmm(r1.points, K).centers(r1.points)
    return SimpleNamespace(
        X=X, mask=mask, blocks=blocks, r1=r1, centers=centers,
        pts=points_table(X, pids),
    )


def sql_distances(run, centers, tail: str = "") -> np.ndarray:
    """Each input point's distance to its closest center (a cross join with
    the centers), descending, then ``tail`` (a LIMIT/OFFSET clause)."""
    sq = " + ".join(f"(p.x{j} - c.x{j}) * (p.x{j} - c.x{j})" for j in range(D))
    sql = (
        f"SELECT min(sqrt({sq})) AS d FROM pts p CROSS JOIN centers c "
        f"GROUP BY p.id ORDER BY d DESC {tail}"
    )
    return query(sql, pts=run.pts, centers=points_table(centers))["d"].values


class TestAssignmentRadius:
    def test_spark_vs_duckdb_assignment(self, run):
        """Every point's distance from the distributed pass (the top n)
        equals the SQL cross join's; so do the top 10."""
        for m, tail in [(len(run.X), ""), (10, "LIMIT 10")]:
            np.testing.assert_allclose(
                top_distances(run.blocks, run.centers, m),
                sql_distances(run, run.centers, tail),
                rtol=1e-9,
            )

    def test_sql_radius_matches_numpy(self, run):
        (r,) = sql_distances(run, run.centers, "LIMIT 1")
        assert radius_spark(run.blocks, run.centers) == pytest.approx(r, rel=1e-9)
        assert radius(run.X, run.centers) == pytest.approx(r, rel=1e-9)

    def test_outlier_radius_vs_sql(self, spark, run):
        """The (z+1)-th largest distance (ORDER BY ... OFFSET z) equals
        ``radius_spark``, and the radius an MR driver reports for its own
        centers."""
        for z in (1, 7, 49):
            (r,) = sql_distances(run, run.centers, f"LIMIT 1 OFFSET {z}")
            assert radius_spark(run.blocks, run.centers, z) == pytest.approx(
                r, rel=1e-9
            )
        res = mr_kcenter_outliers(spark, run.X, K, 20, ELL, tau=50)
        (r,) = sql_distances(run, res.centers, "LIMIT 1 OFFSET 20")
        assert res.radius == pytest.approx(r, rel=1e-9)


class TestCoresetWeights:
    def test_weight_totals_vs_duckdb(self, run):
        got = pd.DataFrame({"pid": run.r1.pids, "n": run.r1.weights})
        got = got.groupby("pid", as_index=False).sum()
        assert_equivalent(got, COUNTS_SQL, pts=run.pts)

    def test_partition_sizes_vs_duckdb(self, run):
        sizes = run.r1.part_sizes
        got = pd.DataFrame({"pid": list(sizes), "n": list(sizes.values())})
        assert_equivalent(got, COUNTS_SQL, pts=run.pts)

    def test_coreset_rows_in_own_subset(self, run):
        """The semi-join on pid and coordinates keeps every coreset row."""
        coreset = points_table(run.r1.points, run.r1.pids).drop(columns="id")
        same = " AND ".join(f"p.x{j} = c.x{j}" for j in range(D))
        sql = (
            "SELECT * FROM coreset c WHERE EXISTS "
            f"(SELECT 1 FROM pts p WHERE p.pid = c.pid AND {same})"
        )
        assert len(coreset) == ELL * TAU
        assert_equivalent(coreset, sql, coreset=coreset, pts=run.pts)


class TestDistributedEvaluator:
    def test_top_distances_match_local(self, run):
        d, _ = min_dist(run.X, run.centers)
        np.testing.assert_allclose(
            top_distances(run.blocks, run.centers, 10),
            np.sort(d)[::-1][:10],
            rtol=1e-9,
        )

    # 3050 = len(run.X): with z >= n every point may be discarded.
    @pytest.mark.parametrize("z", [0, 1, 7, 3050])
    def test_radius_spark_matches_local(self, run, z):
        assert radius_spark(run.blocks, run.centers, z=z) == pytest.approx(
            radius(run.X, run.centers, z), rel=1e-9
        )


class TestAdversarialBlock:
    """The adversarial partition puts every outlier in subset 0, so one
    block holds all 50 of the largest distances: a block that keeps too
    few of its own top distances changes the radius."""

    @pytest.fixture(scope="class")
    def blocks(self, spark, run):
        pids = make_pids(len(run.X), ELL, "adversarial", outlier_mask=run.mask)
        blocks = to_spark(spark, run.X, pids=pids)
        held = [int(run.mask[ids].sum()) for ids, _, _ in blocks.collect()]
        assert max(held) == sum(held) == 50
        return blocks

    def test_top_distances_vs_sql(self, run, blocks):
        for m, tail in [(len(run.X), ""), (10, "LIMIT 10"), (51, "LIMIT 51")]:
            np.testing.assert_allclose(
                top_distances(blocks, run.centers, m),
                sql_distances(run, run.centers, tail),
                rtol=1e-9,
            )

    @pytest.mark.parametrize("z", [0, 1, 49, 50])
    def test_radius_spark_vs_sql(self, run, blocks, z):
        (r,) = sql_distances(run, run.centers, f"LIMIT 1 OFFSET {z}")
        assert radius_spark(blocks, run.centers, z) == pytest.approx(
            r, rel=1e-9
        )


def test_package_imports_without_duckdb():
    """DuckDB is a test-only dependency: every module of the package
    imports with it blocked."""
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['duckdb'] = None\n"
        f"sys.path.insert(0, {str(Path(repro.__file__).parents[1])!r})\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(m.name)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
