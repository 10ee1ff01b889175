"""Tests for repro.core.outliers_cluster — Algorithm 1 semantics and the
Lemma 5 guarantee."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gmm import gmm
from repro.core import outliers_cluster as oc_module
from repro.core.metric import cdist, min_dist, pair_tiles
from repro.core.outliers_cluster import outliers_cluster
from tests.brute_force import brute_force_kcenter_outliers
from tests.conftest import split_tiles, tiles_matrix


class TestMechanics:
    def test_at_most_k_centers(self, three_blobs):
        res = outliers_cluster(three_blobs, np.ones(len(three_blobs)), 3, 1.0, 0.1)
        assert res.n_centers <= 3

    def test_stops_when_all_covered(self, three_blobs):
        # Huge radius: the first center's ball covers everything.
        res = outliers_cluster(three_blobs, np.ones(len(three_blobs)), 3, 1e6, 0.1)
        assert res.n_centers == 1
        assert not res.uncovered.any()

    def test_covered_points_within_big_ball(self, blobs_with_outliers):
        pts, _ = blobs_with_outliers
        w = np.ones(len(pts))
        r, eps = 1.0, 0.1
        res = outliers_cluster(pts, w, 3, r, eps)
        C = pts[res.centers_idx]
        d, _ = min_dist(pts, C)
        covered = ~res.uncovered
        assert (d[covered] <= (3 + 4 * eps) * r + 1e-9).all()

    def test_uncovered_points_outside_big_ball(self, blobs_with_outliers):
        pts, _ = blobs_with_outliers
        w = np.ones(len(pts))
        r, eps = 1.0, 0.1
        res = outliers_cluster(pts, w, 3, r, eps)
        if res.uncovered.any():
            C = pts[res.centers_idx]
            d, _ = min_dist(pts, C)
            assert (d[res.uncovered] > (3 + 4 * eps) * r - 1e-9).all()

    def test_uncovered_weight_consistent(self, blobs_with_outliers):
        pts, _ = blobs_with_outliers
        g = np.random.default_rng(0)
        w = g.integers(1, 5, len(pts)).astype(float)
        res = outliers_cluster(pts, w, 3, 1.0, 0.1)
        assert res.uncovered_weight == pytest.approx(w[res.uncovered].sum())

    def test_greedy_picks_max_weight_ball_first(self):
        # Two groups; one has far larger aggregate weight: its area must
        # host the first center.
        pts = np.array([[0.0, 0], [0.1, 0], [50.0, 0], [50.1, 0]])
        w = np.array([1.0, 1.0, 100.0, 100.0])
        res = outliers_cluster(pts, w, 1, 1.0, 0.0)
        assert pts[res.centers_idx[0]][0] >= 49.0

    def test_center_need_not_be_uncovered(self):
        """After round 1 covers a region, a later center may still be a
        covered point if its ball has max uncovered weight."""
        pts = np.array([[0.0, 0], [7.0, 0], [14.0, 0]])
        w = np.array([1.0, 5.0, 1.0])
        res = outliers_cluster(pts, w, 2, 1.0, 0.0)
        assert res.n_centers <= 2  # smoke: selection ran with ties fine

    def test_zero_radius(self, three_blobs):
        w = np.ones(len(three_blobs))
        res = outliers_cluster(three_blobs, w, 2, 0.0, 0.1)
        # r=0 covers only coincident points: at most 2 covered "locations".
        assert res.n_centers == 2

    def test_validation(self, three_blobs):
        w = np.ones(len(three_blobs))
        with pytest.raises(ValueError):
            outliers_cluster(three_blobs, w[:-1], 2, 1.0, 0.1)
        with pytest.raises(ValueError):
            outliers_cluster(three_blobs, w, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            outliers_cluster(three_blobs, w, 2, -1.0, 0.1)
        with pytest.raises(ValueError):
            outliers_cluster(
                three_blobs, w, 2, 1.0, 0.1, pairs=pair_tiles(three_blobs[:2])
            )

    def test_precomputed_matrix_matches(self, blobs_with_outliers):
        pts, _ = blobs_with_outliers
        w = np.ones(len(pts))
        a = outliers_cluster(pts, w, 3, 1.0, 0.1)
        b = outliers_cluster(pts, w, 3, 1.0, 0.1, pairs=pair_tiles(pts))
        np.testing.assert_array_equal(a.centers_idx, b.centers_idx)
        np.testing.assert_array_equal(a.uncovered, b.uncovered)


class TestLemma5:
    """At any r >= r*_{k,z}(S): the points of S whose proxies remain
    uncovered number at most z."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_weights_uncovered_at_most_z(self, seed):
        g = np.random.default_rng(seed)
        pts = g.uniform(-1, 1, (9, 2))
        k, z = 2, 2
        opt, _ = brute_force_kcenter_outliers(pts, k, z)
        res = outliers_cluster(pts, np.ones(len(pts)), k, opt, 0.0)
        assert res.uncovered_weight <= z

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.0, 0.3))
    def test_unit_weights_hypothesis(self, seed, eps_hat):
        g = np.random.default_rng(seed)
        pts = g.normal(size=(8, 2))
        k, z = 2, 1
        opt, _ = brute_force_kcenter_outliers(pts, k, z)
        res = outliers_cluster(pts, np.ones(len(pts)), k, opt, eps_hat)
        assert res.uncovered_weight <= z

    def test_weighted_coreset_s_tprime_bound(self, blobs_with_outliers):
        """The full Lemma 5 statement over a *weighted coreset*: S_{T'} =
        {s : p(s) in T'} has size <= z when r >= r*_{k,z}(S)."""
        pts, mask = blobs_with_outliers
        k, z = 3, int(mask.sum())
        # weighted coreset from GMM with proxy weights
        res_gmm = gmm(pts, k + z + 5)
        T, w = res_gmm.centers(pts), res_gmm.weights()
        # r*_{k,z}(S) upper bound: radius of planted solution
        opt_ub = 2.0  # blobs have std 0.3 around known centers
        res = outliers_cluster(T, w.astype(float), k, opt_ub, 0.1)
        # |S_{T'}|: points whose proxy is uncovered
        s_tprime = res.uncovered[res_gmm.assign].sum()
        assert s_tprime <= z

    def test_radius_larger_means_feasible(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        w = np.ones(len(pts))
        k, z = 3, int(mask.sum())
        opt, _ = brute_force_kcenter_outliers(pts[::4], k, 2)  # rough scale
        res = outliers_cluster(pts, w, k, 10.0, 0.1)
        assert res.uncovered_weight <= z


def _recompute_every_pick(D, w, k, r, eps_hat):
    """Reference: Algorithm 1 with the gains recomputed from scratch at
    every pick."""
    in_ball = D <= (1.0 + 2.0 * eps_hat) * r
    uncovered = np.ones(len(D), dtype=bool)
    centers = []
    while len(centers) < k and uncovered.any():
        x = int((in_ball @ (w * uncovered)).argmax())
        centers.append(x)
        uncovered &= D[x] > (3.0 + 4.0 * eps_hat) * r
    centers = np.asarray(centers, dtype=np.int64)
    return centers, uncovered, float(w[uncovered].sum())


def _instance(seed):
    """A small weighted instance built to make ties frequent: points on an
    integer grid (so many equal distances) with some rows duplicated,
    integer weights, and a radius drawn from 0, the exact pairwise
    distances, or in between. k ranges past the number of distinct points
    (the early stop once everything is covered)."""
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 70))
    pts = g.integers(-4, 5, (n, int(g.integers(1, 4)))).astype(float)
    dup = g.random(n) < 0.25
    pts[dup] = pts[g.integers(0, n, int(dup.sum()))]
    w = [np.ones(n), g.integers(1, 9, n), g.integers(1, 10**6, n)][
        int(g.integers(0, 3))
    ].astype(np.float64)
    D = cdist(pts, pts)
    kind = seed % 3
    if kind == 0:
        r = 0.0
    elif kind == 1:
        r = float(g.choice(np.unique(D)))
    else:
        r = float(g.uniform(0.0, D.max() + 1.0))
    n_distinct = len(np.unique(pts, axis=0))
    k = int(g.integers(1, n_distinct + 3))
    eps_hat = float(g.choice([0.0, 0.05, 0.1]))
    return pts, w, D, k, r, eps_hat


class TestIncrementalGains:
    """The incremental gain update returns exactly what recomputing the
    gains at every pick returns (integer weights: exact float64 sums)."""

    @pytest.mark.parametrize("block", [None, 1, 37])
    def test_matches_recompute_every_pick(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(oc_module, "_BLOCK_ENTRIES", block)
        for seed in range(240):
            pts, w, D, k, r, eps_hat = _instance(seed)
            ref_idx, ref_unc, ref_w = _recompute_every_pick(
                D, w, k, r, eps_hat
            )
            res = outliers_cluster(pts, w, k, r, eps_hat,
                                   pairs=pair_tiles(pts))
            np.testing.assert_array_equal(res.centers_idx, ref_idx, str(seed))
            np.testing.assert_array_equal(res.uncovered, ref_unc, str(seed))
            assert res.uncovered_weight == ref_w, seed


class TestGainsPrecision:
    """The gains are float32 up to a total weight of 2^24, where every
    integer sum is exact, and float64 above."""

    def test_dtype_threshold(self):
        half = np.full(2, 2.0**23)
        assert oc_module._gains_dtype(half) is np.float32
        assert oc_module._gains_dtype(half + [0, 1]) is np.float64

    @pytest.mark.parametrize("k", [1, 2])
    def test_picks_true_maximum_above_threshold(self, k):
        """Ball weights 2^24 (first) and 2^24 + 1 (second) tie in float32;
        the heavier ball must win."""
        pts = np.array([[0.0], [0.5], [100.0], [100.5]])
        w = np.array([2.0**23, 2.0**23, 2.0**23, 2.0**23 + 1])
        res = outliers_cluster(pts, w, k, 1.0, 0.0)
        assert res.centers_idx[0] in (2, 3)
        ref_idx, ref_unc, _ = _recompute_every_pick(
            cdist(pts, pts), w, k, 1.0, 0.0
        )
        np.testing.assert_array_equal(res.centers_idx, ref_idx)
        np.testing.assert_array_equal(res.uncovered, ref_unc)

    @pytest.mark.parametrize("seed", range(4))
    def test_total_at_threshold_matches_recompute(self, seed):
        """Integer weights summing to exactly 2^24 (float32 gains) give the
        reference's picks."""
        pts, w, D, k, r, eps_hat = _instance(seed + 1)
        g = np.random.default_rng(seed)
        w = g.integers(1, 2**24 // len(w), len(w)).astype(np.float64)
        w[0] += 2**24 - w.sum()
        assert w.sum() == 2**24 and w.min() >= 1
        assert oc_module._gains_dtype(w) is np.float32
        ref_idx, ref_unc, ref_w = _recompute_every_pick(D, w, k, r, eps_hat)
        res = outliers_cluster(pts, w, k, r, eps_hat, pairs=pair_tiles(pts))
        np.testing.assert_array_equal(res.centers_idx, ref_idx)
        np.testing.assert_array_equal(res.uncovered, ref_unc)
        assert res.uncovered_weight == ref_w


def _subtract_every_pick(T, w, k, r, eps_hat):
    """Reference: the loop before the min-rows update. After every pick,
    including the k-th, the weight of the newly covered rows is subtracted
    from the gains, in blocks of ``_BLOCK_ENTRIES``. Also returns how many
    picks before the k-th covered more rows than they left uncovered
    (where the min-rows update recomputes the gains instead)."""
    D = cdist(T, T)
    n = len(T)
    in_ball = D <= (1.0 + 2.0 * eps_hat) * r
    cover_r = (3.0 + 4.0 * eps_hat) * r
    wv = w.astype(oc_module._gains_dtype(w))
    step = max(1, oc_module._BLOCK_ENTRIES // max(1, n))
    gains = np.empty(n, dtype=wv.dtype)
    for lo in range(0, n, step):
        gains[lo:lo + step] = in_ball[lo:lo + step] @ wv
    uncovered = np.ones(n, dtype=bool)
    centers, recomputes = [], 0
    while len(centers) < k and uncovered.any():
        x = int(gains.argmax())
        centers.append(x)
        keep = D[x] > cover_r
        newly = np.flatnonzero(uncovered & ~keep)
        uncovered &= keep
        left = int(uncovered.sum())
        recomputes += len(centers) < k and 0 < left < len(newly)
        for lo in range(0, len(newly), step):
            rows = newly[lo:lo + step]
            gains -= wv[rows] @ in_ball[rows]
    centers = np.asarray(centers, dtype=np.int64)
    return centers, uncovered, float(w[uncovered].sum()), recomputes


class TestMinRowsUpdate:
    """Each pick reads the rows it covers or the rows it leaves uncovered,
    whichever are fewer, and the k-th pick none: the same answers as
    subtracting the newly covered rows after every pick, in float32 gains
    (total weight <= 2^24) and float64 gains (above), on integer weights."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("block", [None, 1, 37])
    def test_matches_subtract_every_pick(self, wide, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(oc_module, "_BLOCK_ENTRIES", block)
        recomputes = 0
        for seed in range(200):
            g = np.random.default_rng([seed, 5])
            n = int(g.integers(2, 90))
            T = g.normal(size=(n, int(g.integers(1, 4))))
            T *= g.uniform(0.5, 4.0, n)[:, None]  # dense core, sparse rim
            T[g.random(n) < 0.2] = T[0]
            hi = 2**22 if wide else 9
            w = g.integers(1, hi, n).astype(np.float64)
            if wide:
                w[0] += 2**24  # float64 gains
            assert (oc_module._gains_dtype(w) is np.float64) == wide
            D = cdist(T, T)
            r = float(np.quantile(D, g.uniform(0.05, 0.6)))
            k = int(g.integers(1, 6))
            eps_hat = float(g.choice([0.0, 0.1]))
            ref_idx, ref_unc, ref_w, rc = _subtract_every_pick(
                T, w, k, r, eps_hat
            )
            recomputes += rc
            res = outliers_cluster(T, w, k, r, eps_hat, pairs=pair_tiles(T))
            assert res.centers_idx.tobytes() == ref_idx.tobytes(), seed
            assert res.uncovered.tobytes() == ref_unc.tobytes(), seed
            assert res.uncovered_weight == ref_w, seed
        # Picks that cover more rows than they leave ran the recompute.
        assert recomputes > 20, recomputes


def _dense_outliers_cluster(D, w, k, r, eps_hat):
    """Reference: the kernel over the whole matrix ``D = cdist(T, T)``
    that the row tiles replaced. It builds the n x n bool ball matrix,
    takes the gains in row blocks, and after each pick but the k-th
    subtracts the weight of the rows it covered or recomputes the weight
    of the rows it left, whichever are fewer."""
    n = len(D)
    in_ball = D <= (1.0 + 2.0 * eps_hat) * r
    cover_r = (3.0 + 4.0 * eps_hat) * r
    wv = w.astype(oc_module._gains_dtype(w))
    step = max(1, oc_module._BLOCK_ENTRIES // max(1, n))

    def ball_weight(rows):
        total = np.zeros(n, dtype=wv.dtype)
        for lo in range(0, len(rows), step):
            r_ = rows[lo:lo + step]
            total += wv[r_] @ in_ball[r_]
        return total

    gains = np.empty(n, dtype=wv.dtype)
    for lo in range(0, n, step):
        gains[lo:lo + step] = in_ball[lo:lo + step] @ wv
    uncovered = np.ones(n, dtype=bool)
    centers = []
    while len(centers) < k and uncovered.any():
        x = int(gains.argmax())
        centers.append(x)
        keep = D[x] > cover_r
        newly = np.flatnonzero(uncovered & ~keep)
        uncovered &= keep
        rest = np.flatnonzero(uncovered)
        if len(centers) == k or not len(rest):
            break
        if len(newly) <= len(rest):
            gains -= ball_weight(newly)
        else:
            gains = ball_weight(rest)
    centers = np.asarray(centers, dtype=np.int64)
    return centers, uncovered, float(w[uncovered].sum())


class TestTiledEquivalence:
    """OutliersCluster over the row tiles returns what the dense kernel
    over ``cdist(T, T)`` returns: the same centers, uncovered mask and
    uncovered weight."""

    @pytest.mark.parametrize("block", [None, 1, 37])
    @pytest.mark.parametrize("tiles", [2, 5, 16])
    def test_integer_instances(self, tiles, block, monkeypatch):
        """Integer grids with coincident rows (ties, zero diagonal),
        split into tiles of a few rows; ``block`` also splits the cast
        blocks down to one row or column."""
        split_tiles(monkeypatch, tiles)
        if block is not None:
            monkeypatch.setattr(oc_module, "_BLOCK_ENTRIES", block)
        for seed in range(120):
            pts, w, D, k, r, eps_hat = _instance(seed)
            P = pair_tiles(pts)
            assert tiles_matrix(P).tobytes() == D.tobytes()
            ref_idx, ref_unc, ref_w = _dense_outliers_cluster(
                D, w, k, r, eps_hat
            )
            res = outliers_cluster(pts, w, k, r, eps_hat, pairs=P)
            assert res.centers_idx.tobytes() == ref_idx.tobytes(), seed
            assert res.uncovered.tobytes() == ref_unc.tobytes(), seed
            assert res.uncovered_weight == ref_w, seed

    def test_float_coreset_sized_instance(self):
        """2720 float points in 7-D, the size of the benchmark's round-2
        coresets, in the default 16 tiles, at radii from no cover to
        one ball covering most points."""
        g = np.random.default_rng(2720)
        centers = g.normal(scale=20.0, size=(12, 7))
        T = centers[g.integers(0, 12, 2720)] + g.normal(size=(2720, 7))
        T[:40] = g.normal(scale=200.0, size=(40, 7))
        w = g.integers(1, 60, len(T)).astype(np.float64)
        P = pair_tiles(T)
        assert len(P.tiles) > 1
        D = cdist(T, T)
        for r in (0.0, 0.731, 1.913, 4.27, 11.3):
            ref_idx, ref_unc, ref_w = _dense_outliers_cluster(
                D, w, 10, r, 0.05
            )
            res = outliers_cluster(T, w, 10, r, 0.05, pairs=P)
            np.testing.assert_array_equal(res.centers_idx, ref_idx)
            np.testing.assert_array_equal(res.uncovered, ref_unc)
            assert res.uncovered_weight == ref_w
