"""DuckDB-oracle checks: every Spark-side aggregate the algorithms rely on
(assignment radii, proxy-weight totals, partition sizes) is recomputed as
SQL on DuckDB via ``repro.oracle.assert_equivalent`` and diffed against the
identical Spark SQL result — catching wrong joins/shuffles, not just
"it ran"."""
import numpy as np
import pandas as pd
import pytest

from repro.core.gmm import gmm_coreset_fixed
from repro.core.metric import min_dist, radius
from repro.data.datasets import higgs_like
from repro.mapreduce.evaluate import radius_spark, top_distances
from repro.mapreduce.partitioning import make_pids
from repro.oracle import assert_equivalent
from tests.conftest import planted_clusters


@pytest.fixture(scope="module")
def pts2d():
    return planted_clusters(120, [(0, 0), (15, 0), (0, 15)], 1.0, seed=60)


def _xy_pdf(points) -> pd.DataFrame:
    return pd.DataFrame(
        {"id": np.arange(len(points)), "x": points[:, 0], "y": points[:, 1]}
    )


ASSIGN_SQL = """
    SELECT p.id AS id,
           min(sqrt((p.x - c.cx) * (p.x - c.cx)
                    + (p.y - c.cy) * (p.y - c.cy))) AS dist
    FROM points p CROSS JOIN centers c
    GROUP BY p.id
"""


class TestAssignmentRadius:
    def test_spark_vs_duckdb_assignment(self, spark, pts2d):
        """Closest-center distance per point via a Spark SQL cross join,
        cross-checked on DuckDB — the exact computation behind r_T(S)."""
        centers = pts2d[:3]
        points_pdf = _xy_pdf(pts2d)
        centers_pdf = pd.DataFrame(
            {"cid": [0, 1, 2], "cx": centers[:, 0], "cy": centers[:, 1]}
        )
        spark.createDataFrame(points_pdf).createOrReplaceTempView("points")
        spark.createDataFrame(centers_pdf).createOrReplaceTempView("centers")
        spark_df = spark.sql(ASSIGN_SQL)
        assert_equivalent(
            spark_df, ASSIGN_SQL, points=points_pdf, centers=centers_pdf
        )

    def test_sql_radius_matches_numpy(self, spark, pts2d):
        """max over the SQL per-point min distances == metric.radius."""
        centers = pts2d[:3]
        points_pdf = _xy_pdf(pts2d)
        centers_pdf = pd.DataFrame(
            {"cid": [0, 1, 2], "cx": centers[:, 0], "cy": centers[:, 1]}
        )
        spark.createDataFrame(points_pdf).createOrReplaceTempView("points")
        spark.createDataFrame(centers_pdf).createOrReplaceTempView("centers")
        sql = f"SELECT max(dist) AS r FROM ({ASSIGN_SQL})"
        got = spark.sql(sql).collect()[0].r
        assert got == pytest.approx(radius(pts2d, centers), rel=1e-9)
        assert_equivalent(
            spark.sql(sql), sql, points=points_pdf, centers=centers_pdf
        )

    def test_outlier_radius_vs_sql(self, spark, pts2d):
        """The (z+1)-th largest distance (the z-outlier radius) via SQL
        ORDER BY/OFFSET agrees with the distributed evaluator."""
        from repro.data.datasets import to_spark

        centers = pts2d[:3]
        z = 4
        points_pdf = _xy_pdf(pts2d)
        centers_pdf = pd.DataFrame(
            {"cid": [0, 1, 2], "cx": centers[:, 0], "cy": centers[:, 1]}
        )
        spark.createDataFrame(points_pdf).createOrReplaceTempView("points")
        spark.createDataFrame(centers_pdf).createOrReplaceTempView("centers")
        sql = (
            f"SELECT dist AS r FROM ({ASSIGN_SQL}) "
            f"ORDER BY dist DESC LIMIT 1 OFFSET {z}"
        )
        spark_df = spark.sql(sql)
        assert_equivalent(
            spark_df, sql, points=points_pdf, centers=centers_pdf
        )
        sql_r = spark_df.collect()[0].r
        dist_r = radius_spark(to_spark(spark, pts2d), centers, z=z)
        assert sql_r == pytest.approx(dist_r, rel=1e-9)


class TestCoresetWeights:
    def test_weight_totals_vs_duckdb(self, spark, pts2d):
        """Proxy weights are group-by counts of the assignment: compute via
        Spark SQL, verify on DuckDB, compare with GMM's own weights."""
        T, w, res = gmm_coreset_fixed(pts2d, 6)
        assign_pdf = pd.DataFrame(
            {"id": np.arange(len(pts2d)), "proxy": res.assign}
        )
        spark.createDataFrame(assign_pdf).createOrReplaceTempView("assign")
        sql = (
            "SELECT proxy AS proxy, count(*) AS w FROM assign "
            "GROUP BY proxy"
        )
        spark_df = spark.sql(sql)
        assert_equivalent(spark_df, sql, assign=assign_pdf)
        got = {r.proxy: r.w for r in spark_df.collect()}
        for t in range(len(T)):
            assert got.get(t, 0) == w[t]

    def test_partition_sizes_vs_duckdb(self, spark, pts2d):
        pids = make_pids(len(pts2d), 4, "contiguous")
        pdf = pd.DataFrame({"id": np.arange(len(pts2d)), "pid": pids})
        spark.createDataFrame(pdf).createOrReplaceTempView("pts")
        sql = "SELECT pid AS pid, count(*) AS n FROM pts GROUP BY pid"
        assert_equivalent(spark.sql(sql), sql, pts=pdf)


class TestDistributedEvaluator:
    def test_top_distances_match_local(self, spark):
        X = higgs_like(1500, seed=61)
        centers = X[:5]
        from repro.data.datasets import to_spark

        df = to_spark(spark, X)
        top = top_distances(df, centers, 10)
        d, _ = min_dist(X, centers)
        expected = np.sort(d)[::-1][:10]
        np.testing.assert_allclose(top, expected, rtol=1e-9)

    @pytest.mark.parametrize("z", [0, 1, 7])
    def test_radius_spark_matches_local(self, spark, z):
        X = higgs_like(1200, seed=62)
        centers = X[:4]
        from repro.data.datasets import to_spark

        df = to_spark(spark, X)
        assert radius_spark(df, centers, z=z) == pytest.approx(
            radius(X, centers, z), rel=1e-9
        )
