"""Integration tests for the 2-round MapReduce k-center-with-outliers
algorithms (Sections 3.2 / 3.2.1) on the session SparkSession."""
import numpy as np
import pytest

from repro.core.metric import brute_force_kcenter_outliers, radius
from repro.mapreduce.kcenter_outliers import (
    experiment_tau,
    mr_kcenter_outliers,
    randomized_zprime,
    sequential_coreset_outliers,
)
from tests.conftest import planted_clusters


@pytest.fixture(scope="module")
def blobs_out():
    pts = planted_clusters(80, [(0, 0), (40, 0), (0, 40)], 0.5, seed=40)
    far = np.array(
        [[500.0, 500], [-400.0, 300], [300.0, -500], [-450.0, -450],
         [0.0, 600], [600.0, 0]]
    )
    allpts = np.vstack([pts, far])
    mask = np.zeros(len(allpts), dtype=bool)
    mask[len(pts):] = True
    return allpts, mask


class TestDeterministic:
    def test_excludes_planted_outliers(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=4, tau=z + 10)
        assert res.radius < 5.0

    def test_weights_account_for_all_points(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=4, tau=z + 10)
        assert res.coreset_weight == len(pts)

    def test_at_most_k_centers(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=4, tau=z + 10)
        assert 1 <= len(res.centers) <= 3

    def test_radius_matches_local(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=2, tau=z + 10)
        assert res.radius == pytest.approx(
            radius(pts, res.centers, z), rel=1e-9
        )

    def test_adversarial_partitioning(self, spark, blobs_out):
        """All outliers in one partition (the Figure 4 stress setup): with
        a large enough coreset the solution still excludes them."""
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(
            spark, pts, k=3, z=z, ell=4,
            tau=experiment_tau(4, 3, z, 4, randomized=False),
            outlier_mask=mask,
        )
        assert res.radius < 5.0

    def test_theorem2_bound(self, spark):
        """(3+eps) bound against brute force on a tiny instance, using the
        adaptive rule (eps) and the paper's eps_hat = eps/6 coupling."""
        g = np.random.default_rng(50)
        pts = g.uniform(-1, 1, (20, 2))
        k, z, eps = 2, 2, 0.6
        opt, _ = brute_force_kcenter_outliers(pts, k, z)
        res = mr_kcenter_outliers(
            spark, pts, k=k, z=z, ell=2, eps=eps / 6, eps_hat=eps / 6
        )
        assert res.radius <= (3 + eps) * opt + 1e-6

    def test_search_radius_feasible_scale(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=2, tau=z + 10)
        assert res.r_search < 10.0  # blob scale, not outlier scale
        assert res.search_evaluations >= 1

    def test_timing_fields(self, spark, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        res = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=2, tau=z + 10)
        assert res.t_coreset > 0 and res.t_cluster > 0


class TestRandomized:
    def test_recovers_with_small_coreset(self, spark, blobs_out):
        """Randomized partitioning spreads the z outliers, so per-partition
        budget ~ k + 6z/ell suffices (the 3.2.1 claim)."""
        pts, mask = blobs_out
        z = int(mask.sum())
        tau = experiment_tau(2, 3, z, 4, randomized=True)
        res = mr_kcenter_outliers(
            spark, pts, k=3, z=z, ell=4, tau=tau, randomized=True, seed=7
        )
        assert res.radius < 5.0
        assert res.coreset_size <= 4 * tau

    def test_randomized_coreset_smaller_than_deterministic(self):
        """The 3.2.1 memory saving kicks in when z >> ell (paper scale:
        k=20, z=200, ell=16): mu*(k + 6z/ell) << mu*(k+z)."""
        det = experiment_tau(2, 20, 200, 16, randomized=False)
        rnd = experiment_tau(2, 20, 200, 16, randomized=True)
        assert rnd < det / 2


class TestFormulas:
    def test_zprime_formula(self):
        import math

        n, z, ell = 100_000, 1000, 16
        assert randomized_zprime(n, z, ell) == math.ceil(
            6 * (z / ell + math.log2(n))
        )

    def test_experiment_tau_deterministic(self):
        assert experiment_tau(2, 20, 200, 16, randomized=False) == 440

    def test_experiment_tau_randomized(self):
        assert experiment_tau(2, 20, 200, 16, randomized=True) == 190

    def test_experiment_tau_floor(self):
        # never below k+1 so GMM can make progress past k
        assert experiment_tau(1, 5, 0, 4, randomized=True) >= 6


class TestSequentialPath:
    def test_matches_mr_ell1(self, spark, blobs_out):
        """The driver-only sequential implementation must agree with the
        Spark pipeline at ell = 1 (same coreset, same search)."""
        pts, mask = blobs_out
        z = int(mask.sum())
        mr = mr_kcenter_outliers(spark, pts, k=3, z=z, ell=1, tau=z + 10)
        centers, search, _, _ = sequential_coreset_outliers(
            pts, 3, z, tau=z + 10
        )
        np.testing.assert_allclose(mr.centers, centers)
        assert mr.r_search == pytest.approx(search.r)

    def test_needs_tau_or_eps(self, blobs_out):
        pts, _ = blobs_out
        with pytest.raises(ValueError, match="exactly one"):
            sequential_coreset_outliers(pts, 3, 6)
        with pytest.raises(ValueError, match="exactly one"):
            sequential_coreset_outliers(pts, 3, 6, tau=20, eps=0.5)

    def test_sequential_quality(self, blobs_out):
        pts, mask = blobs_out
        z = int(mask.sum())
        centers, _, t_cs, t_cl = sequential_coreset_outliers(
            pts, 3, z, tau=4 * (3 + z)
        )
        assert radius(pts, centers, z) < 5.0
        assert t_cs > 0 and t_cl > 0
