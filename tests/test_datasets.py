"""Tests for repro.data.datasets — generators, outlier injection (Section
5.2 procedure), inflation (Section 5.3), Spark conversion."""
import numpy as np
import pandas as pd
import pytest

from repro.core.metric import cdist
from repro.data import datasets as ds
from tests.oracle import assert_equivalent, points_table


class TestGenerators:
    @pytest.mark.parametrize("name,dim", [("higgs", 7), ("power", 7), ("wiki", 50)])
    def test_shape(self, name, dim):
        X = ds.DATASETS[name](500, seed=0)
        assert X.shape == (500, dim)

    @pytest.mark.parametrize("name", ["higgs", "power", "wiki"])
    def test_deterministic(self, name):
        a = ds.DATASETS[name](200, seed=7)
        b = ds.DATASETS[name](200, seed=7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["higgs", "power", "wiki"])
    def test_seed_changes_data(self, name):
        a = ds.DATASETS[name](200, seed=1)
        b = ds.DATASETS[name](200, seed=2)
        assert not np.array_equal(a, b)

    def test_finite(self):
        for name in ds.DATASETS:
            assert np.isfinite(ds.DATASETS[name](300)).all()

    def test_clustered_structure(self):
        """higgs_like must be clusterable: GMM with the generator's cluster
        count should give a much smaller radius than a single center."""
        from repro.core.gmm import gmm

        X = ds.higgs_like(2000, seed=3)
        r1 = gmm(X, 1).radii[-1]
        r40 = gmm(X, 40).radii[-1]
        assert r40 < 0.5 * r1


class TestMeb:
    def test_covers_all_points(self):
        X = ds.higgs_like(500)
        c, r = ds.meb_approx(X)
        assert (cdist(X, c[None, :]) <= r + 1e-9).all()

    def test_single_point(self):
        c, r = ds.meb_approx(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(c, [3.0, 4.0])
        assert r == 0.0


class TestAddOutliers:
    def test_z_zero_identity(self):
        X = ds.higgs_like(100)
        Y, mask = ds.add_outliers(X, 0)
        np.testing.assert_array_equal(X, Y)
        assert not mask.any()

    @pytest.mark.parametrize("name", ["higgs", "power", "wiki"])
    def test_paper_distance_properties(self, name):
        """Section 5.2: each injected point is >= 99*r_MEB from every
        original point, and injected points are pairwise >= 10*r_MEB."""
        X = ds.DATASETS[name](400, seed=4)
        _, r = ds.meb_approx(X)
        Y, mask = ds.add_outliers(X, 12, seed=5)
        out, orig = Y[mask], Y[~mask]
        assert (cdist(out, orig).min(axis=1) >= 99 * r).all()
        D = cdist(out, out)
        off = D[~np.eye(len(out), dtype=bool)]
        assert off.min() >= 10 * r

    def test_mask_and_count(self):
        X = ds.power_like(300)
        Y, mask = ds.add_outliers(X, 7, seed=1)
        assert len(Y) == 307 and mask.sum() == 7
        np.testing.assert_array_equal(Y[:300], X)

    def test_deterministic(self):
        X = ds.wiki_like(200)
        a, _ = ds.add_outliers(X, 5, seed=9)
        b, _ = ds.add_outliers(X, 5, seed=9)
        np.testing.assert_array_equal(a, b)


class TestInflate:
    def test_factor_one_copy(self):
        X = ds.higgs_like(100)
        Y = ds.inflate(X, 1)
        np.testing.assert_array_equal(X, Y)
        assert Y is not X

    @pytest.mark.parametrize("h", [2, 3, 5])
    def test_size(self, h):
        X = ds.higgs_like(100)
        assert len(ds.inflate(X, h)) == 100 * h

    def test_originals_preserved(self):
        X = ds.higgs_like(100)
        Y = ds.inflate(X, 3, seed=2)
        np.testing.assert_array_equal(Y[:100], X)

    def test_perturbation_scale(self):
        """New points stay near the base cloud: noise sigma is 10% of the
        coordinate range, so inflation must not explode the bounding box."""
        X = ds.higgs_like(500, seed=6)
        Y = ds.inflate(X, 4, seed=3)
        rng_x = X.max(axis=0) - X.min(axis=0)
        assert (Y.max(axis=0) <= X.max(axis=0) + rng_x).all()
        assert (Y.min(axis=0) >= X.min(axis=0) - rng_x).all()

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            ds.inflate(ds.higgs_like(10), 0)


def from_spark(blocks) -> np.ndarray:
    """The points of a ``to_spark`` RDD, collected and ordered by id."""
    parts = blocks.collect()
    ids = np.concatenate([b[0] for b in parts])
    return np.concatenate([b[2] for b in parts])[np.argsort(ids)]


class TestSparkConversion:
    def test_round_trip(self, spark):
        X = ds.higgs_like(200, seed=8)
        np.testing.assert_array_equal(from_spark(ds.to_spark(spark, X)), X)

    def test_schema(self, spark):
        """One block per split: ids int64, pids int32, X float64 (rows, d),
        each row its input row, and the ids partition 0..n-1."""
        X = ds.power_like(50)
        blocks = ds.to_spark(spark, X).collect()
        assert len(blocks) == spark.sparkContext.defaultParallelism
        for ids, pids, Xb in blocks:
            assert (ids.dtype, pids.dtype, Xb.dtype) == (
                np.int64, np.int32, np.float64
            )
            assert ids.shape == pids.shape == (len(Xb),)
            assert Xb.shape == (len(ids), 7)
            np.testing.assert_array_equal(Xb, X[ids])
        ids = np.concatenate([b[0] for b in blocks])
        np.testing.assert_array_equal(np.sort(ids), np.arange(50))

    def test_pids_carried(self, spark):
        """Each id keeps its pid, and the pid counts of the blocks match
        the input's, checked on the DuckDB oracle."""
        X = ds.higgs_like(60)
        pids = np.arange(60) % 4
        blocks = ds.to_spark(spark, X, pids=pids).collect()
        got = {
            int(i): int(p) for b in blocks for i, p in zip(b[0], b[1])
        }
        assert got == {i: i % 4 for i in range(60)}
        carried = pd.Series(np.concatenate([b[1] for b in blocks]))
        assert_equivalent(
            carried.value_counts().rename_axis("pid").reset_index(name="n"),
            "SELECT pid AS pid, count(*) AS n FROM pts GROUP BY pid",
            pts=points_table(X, pids),
        )

    @pytest.mark.parametrize("ell", [1, 3, 4, 9])
    def test_subsets_in_their_reducers_block(self, spark, ell):
        """Partition p holds one block with every point whose pid is p mod
        P, in (pid, id) order, for ell below, equal to and above P."""
        X = ds.higgs_like(300, seed=ell)
        pids = np.random.default_rng(ell).integers(0, ell, 300)
        splits = spark.sparkContext.defaultParallelism
        parts = ds.to_spark(spark, X, pids=pids).glom().collect()
        assert len(parts) == splits
        for p, [(ids, bp, Xb)] in enumerate(parts):
            mine = np.flatnonzero(pids % splits == p)  # by id
            mine = mine[np.argsort(pids[mine], kind="stable")]  # (pid, id)
            np.testing.assert_array_equal(ids, mine)
            np.testing.assert_array_equal(bp, pids[ids])
            np.testing.assert_array_equal(Xb, X[ids])

    @pytest.mark.parametrize(
        "pids",
        [np.zeros(11), np.zeros(9), np.zeros((10, 1)), np.r_[np.zeros(9), -1],
         np.r_[np.zeros(9), 2.7], np.r_[np.zeros(9), np.nan],
         np.r_[np.zeros(9, dtype=np.int64), 2**32 + 1],
         np.r_[np.zeros(9, dtype=np.int64), 2**31]],
        ids=["longer", "shorter", "2-d", "negative", "fractional", "nan",
             "wraps-positive", "wraps-negative"],
    )
    def test_bad_pids_rejected_before_spark(self, pids):
        """``spark`` is a bare object here, so anything that reached Spark
        would raise AttributeError instead. A fractional pid or one past
        the int32 range is rejected before the cast: cast, 2.7 would be
        subset 2 and 2**32 + 1 subset 1."""
        with pytest.raises(ValueError, match="pids"):
            ds.to_spark(object(), ds.higgs_like(10), pids=pids)

    def test_integral_float_pids_accepted(self, spark):
        """Floats with integer values are subset ids like the ints."""
        X = ds.higgs_like(40, seed=3)
        pids = np.arange(40) % 3
        for (ia, pa, Xa), (ib, pb, Xb) in zip(
            ds.to_spark(spark, X, pids=pids).collect(),
            ds.to_spark(spark, X, pids=pids.astype(np.float64)).collect(),
        ):
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(pa, pb)
            np.testing.assert_array_equal(Xa, Xb)

    def test_fewer_points_than_splits(self, spark):
        """n below the number of splits leaves some blocks empty; the
        round trip still returns every point."""
        X = ds.higgs_like(1, seed=9)
        blocks = ds.to_spark(spark, X).collect()
        assert sum(len(b[2]) == 0 for b in blocks) == len(blocks) - 1
        np.testing.assert_array_equal(from_spark(ds.to_spark(spark, X)), X)
