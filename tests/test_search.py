"""Tests for repro.core.search — the minimum-feasible-radius searches and
the CHARIKARETAL baseline."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import search as search_module
from repro.core.gmm import gmm
from repro.core.metric import min_dist, pair_tiles, radius
from repro.core.outliers_cluster import outliers_cluster
from repro.core.search import (
    charikar,
    default_delta,
    min_feasible_radius,
    min_feasible_radius_exact,
)
from tests.brute_force import brute_force_kcenter_outliers


class TestDelta:
    def test_paper_formula(self):
        eps = 0.3
        assert default_delta(eps) == pytest.approx(eps / (3 + 4 * eps))

    def test_zero_eps(self):
        assert default_delta(0.0) == 0.0


class TestGeometricSearch:
    def test_returns_feasible(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        res = min_feasible_radius(pts, np.ones(len(pts)), 3, z, 0.1)
        assert res.cluster.uncovered_weight <= z

    def test_feasible_radius_close_to_optimum(self, blobs_with_outliers):
        """The search radius is within tolerance of r*_{k,z}: at the planted
        scale, not at the outlier scale."""
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        res = min_feasible_radius(pts, np.ones(len(pts)), 3, z, 0.1)
        assert res.r < 5.0  # planted blob scale, NOT the ~200 outlier scale

    def test_evaluation_count_logarithmic(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        res = min_feasible_radius(pts, np.ones(len(pts)), 3, z, 0.1)
        # binary search over the geometric grid: far fewer than grid size
        assert res.evaluations <= 64

    def test_weighted_feasibility(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        res_gmm = gmm(pts, 3 + z + 6)
        T, w = res_gmm.centers(pts), res_gmm.weights()
        res = min_feasible_radius(T, w.astype(float), 3, z, 0.1)
        assert res.cluster.uncovered_weight <= z

    def test_z_total_weight_gives_zero(self, three_blobs):
        w = np.ones(len(three_blobs))
        res = min_feasible_radius(three_blobs, w, 2, len(three_blobs), 0.1)
        assert res.r == 0.0

    def test_rejects_nonpositive_delta(self, three_blobs):
        with pytest.raises(ValueError):
            min_feasible_radius(
                three_blobs, np.ones(len(three_blobs)), 2, 1, 0.0
            )

    def test_explicit_delta_grid_tolerance(self, blobs_with_outliers):
        """Smaller delta → finer grid → radius no larger (up to grid
        placement), and both remain feasible."""
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        w = np.ones(len(pts))
        coarse = min_feasible_radius(pts, w, 3, z, 0.1, delta=0.5)
        fine = min_feasible_radius(pts, w, 3, z, 0.1, delta=0.01)
        assert fine.cluster.uncovered_weight <= z
        assert fine.r <= coarse.r * 1.5 + 1e-9


class TestExactSearch:
    def test_returns_feasible_candidate(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        res = min_feasible_radius_exact(pts, np.ones(len(pts)), 3, z)
        assert res.cluster.uncovered_weight <= z

    def test_charikar_three_approx(self):
        """[16] guarantee: measured z-outlier radius <= 3 * r*_{k,z}."""
        for seed in range(6):
            g = np.random.default_rng(seed)
            pts = g.uniform(-1, 1, (9, 2))
            k, z = 2, 2
            opt, _ = brute_force_kcenter_outliers(pts, k, z)
            got = radius(pts, charikar(pts, k, z).centers, z)
            assert got <= 3.0 * opt + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_charikar_three_approx_hypothesis(self, seed):
        g = np.random.default_rng(seed)
        pts = g.normal(size=(8, 2))
        k, z = 2, 1
        opt, _ = brute_force_kcenter_outliers(pts, k, z)
        got = radius(pts, charikar(pts, k, z).centers, z)
        assert got <= 3.0 * opt + 1e-9

    def test_charikar_excludes_planted_outliers(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        C = charikar(pts, 3, z).centers
        d, _ = min_dist(pts, C)
        # the z farthest points must be exactly the planted outliers
        far = np.argsort(d)[-z:]
        assert set(far) == set(np.flatnonzero(mask))

    def test_grid_radius_within_tolerance_of_exact(self, blobs_with_outliers):
        """Both searches against the brute-force optimum r*, with the
        tolerance the search documents: Theorem 2's grid.r < (1+delta) * r*.

        Lemma 5 makes every r >= r* feasible, so each search's largest
        infeasible probe r_lo lies below r*. The exact search answers the
        next pairwise distance after r_lo, and r* is a pairwise distance,
        so exact.r <= r*. The grid answers at most one (1+delta) step above
        its r_lo, so grid.r <= (1+delta) * r_lo < (1+delta) * r*.

        grid.r <= (1+delta) * exact.r is not promised: feasibility is not
        monotone in r, and this fixture is the counterexample. It is
        feasible on [0.259, 0.261], infeasible on [0.262, 0.265] and
        feasible again from 0.266; no grid point lands in the first window,
        so the grid gives 0.27151, above (1+delta) times the exact search's
        0.26006 = 0.26771 (r* = 0.80771).
        """
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        w = np.ones(len(pts))
        eps_hat = 0.1
        exact = min_feasible_radius_exact(pts, w, 3, z, eps_hat=eps_hat)
        grid = min_feasible_radius(pts, w, 3, z, eps_hat)
        delta = default_delta(eps_hat)
        opt, _ = brute_force_kcenter_outliers(pts, 3, z)

        def largest_infeasible(res):
            return max(r for r, unc_w, _ in res.trace if unc_w > z)

        exact_lo, grid_lo = largest_infeasible(exact), largest_infeasible(grid)
        assert exact_lo < opt and grid_lo < opt  # Lemma 5
        assert exact.r <= opt
        assert grid.r <= (1 + delta) * grid_lo + 1e-9
        assert grid.r < (1 + delta) * opt  # Theorem 2's search bound


class TestTrace:
    """Each search records one (r, uncovered_weight, n_centers) per
    OutliersCluster evaluation, in probe order."""

    @pytest.mark.parametrize("search", ["grid", "exact"])
    def test_one_entry_per_evaluation(self, search, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        z = int(mask.sum())
        g = np.random.default_rng(4)
        w = g.integers(1, 4, len(pts)).astype(float)
        k, eps_hat = 3, 0.1
        if search == "grid":
            res = min_feasible_radius(pts, w, k, z, eps_hat)
        else:
            res = min_feasible_radius_exact(pts, w, k, z, eps_hat)
        assert len(res.trace) == res.evaluations >= 2
        assert res.trace[0][0] == 0.0  # both searches probe r = 0 first
        P = pair_tiles(pts)
        for r, unc_w, n_centers in res.trace:
            again = outliers_cluster(pts, w, k, r, eps_hat, pairs=P)
            assert (unc_w, n_centers) == (
                again.uncovered_weight, again.n_centers
            )
        assert (res.r, res.cluster.uncovered_weight, res.cluster.n_centers) \
            in res.trace
        # the answer is the smallest feasible radius probed
        assert res.r == min(r for r, unc_w, _ in res.trace if unc_w <= z)

    def test_immediately_feasible(self, three_blobs):
        res = min_feasible_radius(
            three_blobs, np.ones(len(three_blobs)), 2, len(three_blobs), 0.1
        )
        # two centers cover their own points; the other n - 2 are within z
        assert res.trace == ((0.0, len(three_blobs) - 2.0, 2),)


class TestArgumentsBeforeMatrix:
    """A bad k, z or weights array is rejected before the |T|^2 distances
    are computed (``pair_tiles``, the search's only distance pass)."""

    @pytest.mark.parametrize("call", [
        lambda X: charikar(X, 0, 5),
        lambda X: charikar(X, 3, -1),
        lambda X: min_feasible_radius(X, np.ones(len(X) - 1), 3, 5, 0.1),
    ], ids=["k0", "z-1", "weights-length"])
    def test_no_cdist_call(self, call, monkeypatch):
        calls = []

        def counting(T):
            calls.append(len(T))
            return pair_tiles(T)

        monkeypatch.setattr(search_module, "pair_tiles", counting)
        pts = np.random.default_rng(0).normal(size=(300, 3))
        with pytest.raises(ValueError):
            call(pts)
        assert calls == []


class TestSearchMemory:
    """A search holds each pairwise distance once: about n^2 (1/2 + 1/32)
    float64 entries in row tiles (4.25 n^2 bytes), and each evaluation
    adds its bool ball tiles (0.53 n^2 bytes) and block-sized
    temporaries. The n x n float64 matrix plus an n x n bool ball matrix
    took 9 n^2 bytes."""

    N = 2000

    @staticmethod
    def _instance(n):
        g = np.random.default_rng(1)
        return g.normal(size=(n, 3)), g.integers(1, 4, n).astype(np.float64)

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_matrix_plus_ball_matrix(self):
        n = self.N
        T, w = self._instance(n)
        res, peak = self._peak(lambda: min_feasible_radius(T, w, 5, 20, 0.1))
        assert res.evaluations > 2
        assert peak <= 5 * n * n + 2 * 2**20

    def test_peak_memory_outliers_cluster_alone(self):
        """Called without the search's tiles, OutliersCluster builds them
        itself, within the same bound."""
        n = self.N
        T, w = self._instance(n)
        res, peak = self._peak(lambda: outliers_cluster(T, w, 5, 0.3, 0.1))
        assert res.n_centers >= 1
        assert peak <= 5 * n * n + 2 * 2**20

    def test_peak_memory_charikar(self):
        """The exact search's distinct distances: the tiles are copied
        into one array once and sorted in place, about 13 n^2 bytes in
        all. ``np.unique`` over the concatenation sorted a second copy and
        peaked at 17.3 n^2 bytes."""
        n = self.N
        X = np.random.default_rng(0).normal(size=(n, 3))
        res, peak = self._peak(lambda: charikar(X, 5, 20))
        assert res.search.evaluations > 2
        assert peak <= 14 * n * n
