"""Integration tests for the 2-round MapReduce k-center algorithm
(Section 3.1) on the session SparkSession."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.gmm import gmm
from repro.core.metric import brute_force_kcenter, radius
from repro.data.datasets import to_spark
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import CoresetSpec, run_round1
from tests.conftest import planted_clusters


@pytest.fixture(scope="module")
def blobs4():
    return planted_clusters(
        100, [(0, 0), (40, 0), (0, 40), (40, 40)], 0.5, seed=20
    )


class TestEndToEnd:
    def test_recovers_planted_clusters(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.radius < 5.0  # blob scale, not the 40-separation scale

    def test_radius_matches_local_recomputation(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.radius == pytest.approx(
            radius(blobs4, res.centers), rel=1e-9
        )

    def test_coreset_size_ell_times_tau(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.coreset_size == 4 * 8

    def test_part_sizes_balanced(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert sorted(res.part_sizes) == [0, 1, 2, 3]
        assert all(v == 100 for v in res.part_sizes.values())

    def test_theorem1_bound(self, spark):
        """(2+eps)-approximation against the brute-force optimum on a tiny
        instance (adaptive rule with eps)."""
        g = np.random.default_rng(30)
        pts = g.uniform(-1, 1, (24, 2))
        k, eps = 2, 0.5
        opt, _ = brute_force_kcenter(pts, k)
        res = mr_kcenter(spark, pts, k=k, ell=2, eps=eps)
        assert res.radius <= (2 + eps) * opt + 1e-9

    @pytest.mark.parametrize("ell", [1, 2, 4])
    def test_parallelism_sweep(self, spark, blobs4, ell):
        res = mr_kcenter(spark, blobs4, k=4, ell=ell, tau=8)
        assert res.radius < 5.0
        assert len(res.centers) == 4

    def test_ell1_equals_sequential_gmm(self, spark, blobs4):
        """With ell=1 and tau=n the coreset is all of S, so round 2's GMM
        must equal plain sequential GMM on S. The driver re-sorts the
        collected coreset lexicographically, so feed pre-sorted points to
        make the two GMM runs start from the same first center."""
        order = np.lexsort(blobs4.T[::-1])  # row-lexicographic
        Xs = blobs4[order]
        res = mr_kcenter(spark, Xs, k=4, ell=1, tau=len(Xs))
        seq = gmm(Xs, 4)
        np.testing.assert_allclose(
            np.sort(res.centers, axis=0),
            np.sort(seq.centers(Xs), axis=0),
        )

    def test_mu1_is_malkomes_baseline(self, spark, blobs4):
        """tau = k reproduces the [26] algorithm; larger tau must not be
        substantially worse (the Figure 2 trend at planted scale)."""
        r1 = mr_kcenter(spark, blobs4, k=4, ell=4, tau=4).radius
        r8 = mr_kcenter(spark, blobs4, k=4, ell=4, tau=32).radius
        assert r8 <= r1 + 1e-9

    def test_timings_populated(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=2, tau=8)
        assert res.t_coreset > 0 and res.t_final >= 0


class TestRound1:
    @pytest.mark.parametrize(
        "spec", [CoresetSpec(tau=8), CoresetSpec(k_base=4, eps=0.5)],
        ids=["fixed", "adaptive"],
    )
    def test_independent_of_row_order_and_partitioning(
        self, spark, blobs4, spec
    ):
        """Each reducer sorts its subset by id, so round 1 depends only on
        the pid assignment: not on the frame's row order, its Spark
        partitioning or the order in which the shuffle delivers rows."""
        pids = make_pids(len(blobs4), 4, "random", seed=3)
        df = to_spark(spark, blobs4, pids=pids)
        moved = df.orderBy(F.rand(seed=5)).repartition(7)
        a = run_round1(df, 4, spec)
        b = run_round1(moved, 4, spec)
        for name in ("points", "weights", "pids"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.part_sizes == b.part_sizes


class TestValidation:
    def test_bad_k(self, spark, blobs4):
        with pytest.raises(ValueError):
            mr_kcenter(spark, blobs4, k=0, ell=2, tau=4)

    def test_tau_below_k(self, spark, blobs4):
        with pytest.raises(ValueError):
            mr_kcenter(spark, blobs4, k=4, ell=2, tau=3)

    def test_spec_requires_exactly_one_rule(self):
        with pytest.raises(ValueError):
            CoresetSpec()
        with pytest.raises(ValueError):
            CoresetSpec(tau=5, k_base=3, eps=0.5)
