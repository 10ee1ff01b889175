"""Tests for repro.core.gmm — farthest-first traversal for tau centers
(Lemma 1, proxy weights), and for the coreset size of the paper's eps
rule (Lemmas 2 and 3), read off one full traversal by ``rule_tau``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gmm import gmm
from repro.core.metric import cdist, min_dist, radius
from tests.brute_force import brute_force_kcenter, rule_tau
from tests.conftest import planted_clusters


class TestGmmBasics:
    def test_first_center_is_first_point(self, three_blobs):
        res = gmm(three_blobs, 3)
        assert res.centers_idx[0] == 0

    def test_requested_tau(self, three_blobs):
        res = gmm(three_blobs, 7)
        assert res.tau == 7

    def test_tau_capped_at_n(self, tiny_points):
        res = gmm(tiny_points, 50)
        assert res.tau == len(tiny_points)
        # GEMM-form distances carry ~1e-8 cancellation noise at zero.
        assert res.radii[-1] == pytest.approx(0.0, abs=1e-6)

    def test_radii_non_increasing(self, three_blobs):
        res = gmm(three_blobs, 20)
        assert (np.diff(res.radii) <= 1e-12).all()

    def test_final_dist_matches_radius(self, three_blobs):
        res = gmm(three_blobs, 5)
        assert res.radii[-1] == pytest.approx(res.dist.max())

    def test_assignment_is_nearest_center(self, three_blobs):
        res = gmm(three_blobs, 6)
        C = res.centers(three_blobs)
        d, a = min_dist(three_blobs, C)
        np.testing.assert_allclose(res.dist, d, atol=1e-9)
        # argmin ties can differ; distances must agree exactly.
        np.testing.assert_allclose(
            np.linalg.norm(three_blobs - C[res.assign], axis=1), d, atol=1e-9
        )

    def test_prefix_property(self, three_blobs):
        """Incrementality: the first j centers of a longer run equal a
        shorter run's output — the property the MR round-1 rule relies on."""
        long = gmm(three_blobs, 10)
        short = gmm(three_blobs, 4)
        np.testing.assert_array_equal(long.centers_idx[:4], short.centers_idx)

    def test_anticover(self, three_blobs):
        """Selected centers are pairwise farther apart than the final
        radius — the greedy-choice property used in Lemma 1's proof."""
        res = gmm(three_blobs, 5)
        C = res.centers(three_blobs)
        D = cdist(C, C)
        off = D[~np.eye(len(C), dtype=bool)]
        assert off.min() >= res.radii[-1] - 1e-9

    def test_three_centers_hit_three_blobs(self, three_blobs):
        res = gmm(three_blobs, 3)
        C = res.centers(three_blobs)
        # One center per planted blob: radius must be ~ the blob spread.
        assert radius(three_blobs, C) < 2.0

    def test_duplicate_points_stop_early(self):
        pts = np.array([[0.0, 0]] * 5 + [[1.0, 1]] * 5)
        res = gmm(pts, 6)
        assert res.tau == 2  # only two distinct locations exist
        assert res.radii[-1] == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gmm(np.zeros((0, 2)), 1)

    def test_bad_first_rejected(self, tiny_points):
        with pytest.raises(ValueError):
            gmm(tiny_points, 2, first=len(tiny_points))

    @pytest.mark.parametrize("first", [0, 3, 9])
    def test_first_center_choice_respected(self, tiny_points, first):
        res = gmm(tiny_points, 3, first=first)
        assert res.centers_idx[0] == first


class TestLemma1:
    """r_{T_X}(X) <= 2 * r*_k(S) for X subset of S (here X = S)."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_approx_random(self, seed, k):
        g = np.random.default_rng(seed)
        pts = g.uniform(-1, 1, (10, 2))
        opt, _ = brute_force_kcenter(pts, k)
        res = gmm(pts, k)
        assert res.radii[-1] <= 2.0 * opt + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(5, 9))
    def test_two_approx_hypothesis(self, seed, k, n):
        g = np.random.default_rng(seed)
        pts = g.normal(size=(n, 2))
        opt, _ = brute_force_kcenter(pts, k)
        res = gmm(pts, k, first=int(g.integers(0, n)))
        assert res.radii[-1] <= 2.0 * opt + 1e-9

    def test_subset_bound(self):
        """Lemma 1 proper: GMM on a subset X still 2-approximates r*_k(S)."""
        g = np.random.default_rng(11)
        S = g.uniform(-1, 1, (12, 2))
        X = S[::2]
        k = 2
        opt_S, _ = brute_force_kcenter(S, k)
        res = gmm(X, k)
        assert res.radii[-1] <= 2.0 * opt_S + 1e-9


class TestWeights:
    def test_weights_sum_to_n(self, three_blobs):
        w = gmm(three_blobs, 7).weights()
        assert w.sum() == len(three_blobs)

    def test_weights_positive(self, three_blobs):
        w = gmm(three_blobs, 7).weights()
        assert (w >= 1).all()

    def test_weight_counts_match_assignment(self, three_blobs):
        res = gmm(three_blobs, 5)
        w = res.weights()
        for t in range(res.tau):
            assert w[t] == (res.assign == t).sum()

    def test_proxy_distance_bounded_by_radius(self, three_blobs):
        """d(s, p(s)) <= r_T(S_i) for every point — the proxy property."""
        res = gmm(three_blobs, 6)
        C = res.centers(three_blobs)
        d = np.linalg.norm(three_blobs - C[res.assign], axis=1)
        assert d.max() <= res.radii[-1] + 1e-9


class TestFixedCoreset:
    @pytest.mark.parametrize("tau", [3, 5, 10, 30])
    def test_size(self, three_blobs, tau):
        res = gmm(three_blobs, tau)
        C, w = res.centers(three_blobs), res.weights()
        assert len(C) == tau and len(w) == tau

    def test_larger_tau_smaller_residual(self, three_blobs):
        r1 = gmm(three_blobs, 3)
        r2 = gmm(three_blobs, 12)
        assert r2.radii[-1] <= r1.radii[-1] + 1e-12


class TestAdaptiveCoreset:
    """GMM run for ``rule_tau`` centers, the size of Section 3.1's rule."""

    def test_stopping_condition_met(self, three_blobs):
        """At tau = rule_tau: r_tau <= (eps/2) * r_k (Section 3.1's rule)."""
        k, eps = 3, 0.5
        res = gmm(three_blobs, rule_tau(three_blobs, k, eps))
        assert res.tau >= k
        assert res.radii[-1] <= (eps / 2.0) * res.radii[k - 1] + 1e-12

    def test_minimality(self, three_blobs):
        """rule_tau is the *first* iteration >= k meeting the rule."""
        k, eps = 3, 0.5
        res = gmm(three_blobs, rule_tau(three_blobs, k, eps))
        if res.tau > k:
            assert res.radii[res.tau - 2] > (eps / 2.0) * res.radii[k - 1]

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
    def test_smaller_eps_larger_coreset(self, eps):
        pts = planted_clusters(40, [(0, 0), (6, 0), (0, 6), (6, 6)], 1.0, seed=9)
        assert rule_tau(pts, 4, eps / 2) >= rule_tau(pts, 4, eps)

    def test_lemma2_proxy_bound(self):
        """Lemma 2: d(s, p(s)) <= eps * r*_k(S) when run on a subset."""
        g = np.random.default_rng(21)
        S = g.uniform(-1, 1, (12, 2))
        k, eps = 2, 0.5
        opt, _ = brute_force_kcenter(S, k)
        X = S[:6]
        res = gmm(X, rule_tau(X, k, eps))
        C = res.centers(X)
        d = np.linalg.norm(X - C[res.assign], axis=1)
        assert d.max() <= eps * opt + 1e-9

    def test_weights_sum(self, three_blobs):
        w = gmm(three_blobs, rule_tau(three_blobs, 3, 0.5)).weights()
        assert w.sum() == len(three_blobs)


class TestDoublingDimensionBound:
    def test_lemma3_bound_low_dimension(self):
        """Lemma 3: |T_i| <= k * (4/eps)^D. For points on a line (D = 1)
        the adaptive coreset must stay small."""
        g = np.random.default_rng(30)
        x = np.sort(g.uniform(0, 100, 500))
        pts = np.stack([x, np.zeros_like(x)], axis=1)
        k, eps = 4, 0.5
        # D=1 bound with slack for the discrete-sample deviation.
        assert rule_tau(pts, k, eps) <= k * int(4 / eps) * 4


def _per_center_gmm(X, tau, first=0):
    """Reference: the farthest-first loop with one ``cdist(X, X[c:c+1])``
    per selected center, as ``gmm`` computed it before caching the norms."""
    n = len(X)
    tau = min(tau, n)
    centers = [first]
    dist = cdist(X, X[first:first + 1])[:, 0]
    assign = np.zeros(n, dtype=np.int64)
    radii = [dist.max(initial=0.0)]
    while len(centers) < tau:
        nxt = int(dist.argmax())
        if dist[nxt] == 0.0:
            break
        nd = cdist(X, X[nxt:nxt + 1])[:, 0]
        closer = nd < dist
        dist[closer] = nd[closer]
        assign[closer] = len(centers)
        centers.append(nxt)
        radii.append(dist.max(initial=0.0))
    return np.array(centers, dtype=np.int64), assign, dist, np.array(radii)


class TestAgainstReference:
    @pytest.mark.parametrize("grid", [False, True],
                             ids=["fixed-float", "fixed-grid"])
    def test_bitwise_equal_to_per_center_cdist(self, grid):
        """``gmm`` with cached norms and one GEMV per center gives the
        per-center ``cdist`` loop's ``centers_idx``, ``assign``, ``dist``
        and ``radii`` bit for bit: on seeded float and integer-grid inputs
        with duplicated rows, any first center, and tau up to past the
        number of distinct points."""
        g = np.random.default_rng(40 + 2 * grid)
        stopped_early = exhausted = 0
        for _ in range(60):
            n = int(g.integers(1, 300))
            d = int(g.choice([1, 2, 7, 50]))
            X = g.normal(size=(n, d)) * 10.0 ** g.uniform(-3, 3)
            if grid:
                X = np.rint(X * 3.0)
            if n > 2:  # duplicated rows
                dup = g.integers(0, n, n // 3)
                X[dup] = X[g.integers(0, n, n // 3)]
            if g.random() < 0.2:  # few distinct points: tau runs past them
                X = X[g.integers(0, min(n, 5), n)]
            tau = int(g.integers(1, n + 4))
            first = int(g.integers(0, n))
            got = gmm(X, tau, first=first)
            ref = _per_center_gmm(X, tau, first=first)
            for name, want in zip(("centers_idx", "assign", "dist", "radii"),
                                  ref):
                have = getattr(got, name)
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes(), name
            stopped_early += got.tau < min(tau, n)
            exhausted += got.tau == len(np.unique(X, axis=0)) < tau
        assert stopped_early and exhausted
