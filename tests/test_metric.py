"""Unit tests for repro.core.metric — distances, radii, brute-force oracles."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metric
from tests.brute_force import brute_force_kcenter, brute_force_kcenter_outliers
from tests.conftest import split_tiles, tiles_matrix


def naive_cdist(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))


class TestAsPoints:
    def test_list_input(self):
        assert metric.as_points([[1, 2], [3, 4]]).shape == (2, 2)

    def test_1d_promoted(self):
        assert metric.as_points([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            metric.as_points(np.zeros((2, 2, 2)))

    def test_dtype_is_float64(self):
        assert metric.as_points([[1, 2]]).dtype == np.float64

    def test_contiguous(self):
        x = np.zeros((4, 6))[:, ::2]
        assert metric.as_points(x).flags["C_CONTIGUOUS"]


class TestCdist:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [1, 2, 7, 50])
    def test_matches_naive(self, seed, dim):
        g = np.random.default_rng(seed)
        a, b = g.normal(size=(8, dim)), g.normal(size=(5, dim))
        np.testing.assert_allclose(
            metric.cdist(a, b), naive_cdist(a, b), atol=1e-9
        )

    def test_self_distance_zero(self):
        g = np.random.default_rng(0)
        a = g.normal(size=(6, 3))
        d = metric.cdist(a, a)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-6)

    def test_symmetry(self):
        g = np.random.default_rng(1)
        a = g.normal(size=(7, 4))
        d = metric.cdist(a, a)
        np.testing.assert_allclose(d, d.T, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 17, 130, 1000])
    @pytest.mark.parametrize("dim", [1, 7, 50])
    @pytest.mark.parametrize("layout", ["c64", "f32", "strided"])
    def test_self_matrix_bitwise_symmetric(self, n, dim, layout):
        """cdist(T, T) equals its transpose bit for bit, with coincident
        rows and magnitudes 1e-3..1e3, also for the float32 and
        non-contiguous inputs that as_points converts: outliers_cluster's
        row update relies on it."""
        g = np.random.default_rng([n, dim])
        T = g.normal(size=(n, dim)) * 10.0 ** g.integers(-3, 4, (n, 1))
        T[: n // 3] = T[n // 3: 2 * (n // 3)]  # coincident rows
        if layout == "f32":
            T = T.astype(np.float32)
        elif layout == "strided":
            T = np.repeat(T, 2, axis=1)[:, ::2]
            assert T.size == 1 or not T.flags["C_CONTIGUOUS"]
        D = metric.cdist(T, T)
        assert np.array_equal(D, D.T)

    def test_no_negative_under_clip(self):
        a = np.full((3, 2), 1e8)
        assert (metric.cdist(a, a) >= 0).all()

    @pytest.mark.parametrize("n", [1, 2, 17, 130, 300, 1000])
    @pytest.mark.parametrize("m", [1, 3, 64, 257, 1000])
    @pytest.mark.parametrize("dim", [1, 7, 50])
    def test_bitwise_equal_to_expanded_expression(self, n, m, dim):
        """The in-place evaluation is the plain expanded expression,
        bit for bit (including clipped near-duplicates), and leaves its
        inputs alone. The larger shapes span many epilogue tiles."""
        g = np.random.default_rng([n, m, dim])
        a = g.normal(size=(n, dim)) * 10.0 ** g.integers(-3, 4)
        b = g.normal(size=(m, dim)) * 10.0 ** g.integers(-3, 4)
        b[: min(n, m) // 2] = a[: min(n, m) // 2]  # coincident pairs
        a0, b0 = a.copy(), b.copy()
        sa, sb = (a * a).sum(axis=1), (b * b).sum(axis=1)
        expected = np.sqrt(
            np.clip((sa[:, None] + sb[None, :]) - 2.0 * (a @ b.T), 0, None)
        )
        got = metric.cdist(a, b)
        assert got.shape == (n, m)
        assert np.array_equal(got, expected)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("n", [1, 17, 300, 1000])
    @pytest.mark.parametrize("dim", [1, 7, 50])
    def test_self_bitwise_equal_to_expanded_expression(self, n, dim):
        """``cdist(a, a)`` is the plain expression built on ``a @ a.T``,
        bit for bit, across tiles, and leaves ``a`` alone."""
        g = np.random.default_rng([n, dim, 1])
        a = g.normal(size=(n, dim)) * 10.0 ** g.integers(-3, 4)
        a[: n // 3] = a[n // 3: 2 * (n // 3)]  # coincident rows
        a0 = a.copy()
        sa = (a * a).sum(axis=1)
        expected = np.sqrt(
            np.clip((sa[:, None] + sa[None, :]) - 2.0 * (a @ a.T), 0, None)
        )
        got = metric.cdist(a, a)
        assert got.shape == (n, n)
        assert np.array_equal(got, expected)
        assert np.array_equal(a, a0)

    def test_peak_memory_one_matrix(self):
        """``cdist(T, T)`` allocates one n x n float64 matrix; the epilogue
        adds only a tile-sized temporary (1 MB), and the norms a few KB
        (tracemalloc sees numpy's buffers)."""
        n = 2000
        T = np.random.default_rng(0).normal(size=(n, 7))
        tracemalloc.start()
        try:
            D = metric.cdist(T, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.shape == (n, n)
        assert peak <= 8 * n * n + 2 * 2**20

    def test_triangle_inequality(self):
        g = np.random.default_rng(2)
        p = g.normal(size=(5, 3))
        d = metric.cdist(p, p)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9



class TestPairTiles:
    """``pair_tiles(T)`` stores each pair of ``cdist(T, T)`` once, in row
    tiles of the upper triangle, and describes an exactly symmetric
    matrix."""

    @pytest.mark.parametrize("tiles", [None, 2, 5, 16])
    def test_rows_bitwise_equal_cdist_on_integers(self, tiles, monkeypatch):
        """On integer coordinates every squared distance is an exact
        integer, so any GEMM gives its bits: ``row(x)`` is
        ``cdist(T, T)[x]``, the zero diagonal included, and so are the
        bounds and the distinct values."""
        if tiles is not None:
            split_tiles(monkeypatch, tiles)
        for seed in range(30):
            g = np.random.default_rng([seed, 11])
            n = int(g.integers(1, 80))
            T = g.integers(-6, 7, (n, int(g.integers(1, 5)))).astype(float)
            T[g.random(n) < 0.25] = T[0]  # coincident points
            P = metric.pair_tiles(T)
            D = metric.cdist(T, T)
            assert len(P) == n and P.starts[0] == 0 and P.starts[-1] == n
            M = tiles_matrix(P)
            assert M.tobytes() == D.tobytes(), seed
            assert not np.diag(M).any()
            pos = D[D > 0]
            assert P.lo == (pos.min() if len(pos) else np.inf)
            assert P.hi == D.max()
            assert np.array_equal(P.values(), np.unique(D))

    def test_each_pair_stored_once(self):
        """A large set takes ``_TILES`` tiles of the upper triangle, the
        diagonal blocks whole: about |T|^2 (1/2 + 1/32) entries, not
        |T|^2. Tile t holds rows ``starts[t]:starts[t+1]`` from column
        ``starts[t]`` on."""
        n = 2720
        T = np.random.default_rng(3).normal(size=(n, 7))
        P = metric.pair_tiles(T)
        assert len(P.tiles) == metric._TILES
        for t, s, e in zip(P.tiles, P.starts, P.starts[1:]):
            assert t.shape == (e - s, n - s)
        assert sum(t.size for t in P.tiles) <= n * n * (0.5 + 1 / 32) + n

    @pytest.mark.parametrize("dim", [3, 50])
    def test_float_tiles_symmetric_and_close_to_cdist(self, dim):
        """On floats the tiles' general GEMMs may differ from ``cdist``'s
        ``syrk`` by a few ulps; the matrix is still exactly symmetric."""
        T = np.random.default_rng(dim).normal(size=(1500, dim))
        M = tiles_matrix(metric.pair_tiles(T))
        assert np.array_equal(M, M.T)
        np.testing.assert_allclose(M, metric.cdist(T, T), rtol=1e-12,
                                   atol=1e-6)

    def test_small_set_is_cdist(self):
        """Up to ``_DENSE_ROWS`` points make one tile: ``cdist(T, T)`` bit
        for bit, floats included."""
        T = np.random.default_rng(5).normal(size=(metric._DENSE_ROWS, 50))
        P = metric.pair_tiles(T)
        assert len(P.tiles) == 1
        assert P.tiles[0].tobytes() == metric.cdist(T, T).tobytes()

    def test_bounds_without_a_positive_distance(self):
        for T in (np.zeros((1, 3)), np.ones((40, 2))):
            P = metric.pair_tiles(T)
            assert (P.lo, P.hi) == (np.inf, 0.0)


def _cdist_nearest(a, b):
    """What ``nearest`` must return, bit for bit: the first minimum of
    each row of ``cdist``."""
    D = metric.cdist(a, b)
    return D.min(axis=1), D.argmin(axis=1)


def _nearest_cases(seed):
    """(points, centers) of one kind per seed: Gaussian, integer grid,
    duplicated centers with points equal to centers, or 1e6 offsets."""
    g = np.random.default_rng([seed, 11])
    n, m = int(g.integers(1, 200)), int(g.integers(1, 300))
    d = int(g.integers(1, 9))
    kind = seed % 4
    if kind == 1:
        return (g.integers(-3, 4, (n, d)).astype(float),
                g.integers(-3, 4, (m, d)).astype(float))
    b = g.normal(size=(m, d)) * 10.0 ** g.integers(-3, 4)
    if kind == 3:
        b += g.uniform(-1e6, 1e6, d)
    b[g.integers(0, m, m // 3)] = b[g.integers(0, m, m // 3)]
    a = b[0] + g.normal(size=(n, d)) * 10.0 ** g.integers(-3, 4)
    if kind >= 2:
        a[: n // 2] = b[g.integers(0, m, n // 2)]
    return a, b


class TestNearest:
    """``nearest`` equals the first minimum of ``cdist``'s rows, as bytes,
    though it takes one square root per row instead of one per entry."""

    @pytest.mark.parametrize("n", [1, 2, 128, 1000])
    @pytest.mark.parametrize("m", [1, 3, 880, 1000])
    @pytest.mark.parametrize("dim", [1, 7, 50])
    def test_shapes(self, n, m, dim):
        """One row, one center, and shapes spanning up to 8 tiles."""
        g = np.random.default_rng([n, m, dim])
        a = g.normal(size=(n, dim)) * 10.0 ** g.integers(-3, 4)
        b = g.normal(size=(m, dim)) * 10.0 ** g.integers(-3, 4)
        b[: min(n, m) // 2] = a[: min(n, m) // 2]
        dist, idx = metric.nearest(a, b)
        ref_d, ref_i = _cdist_nearest(a, b)
        assert dist.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()

    def test_tie_heavy_inputs(self, monkeypatch):
        """Integer grids, duplicated centers, points equal to centers and
        1e6 offsets; cached norms give the same bytes as computed ones.
        Some rows reach the square-root tie branch."""
        calls = []
        ties = metric._root_ties
        monkeypatch.setattr(metric, "_root_ties",
                            lambda *a: calls.append(1) or ties(*a))
        for seed in range(400):
            a, b = _nearest_cases(seed)
            ref_d, ref_i = _cdist_nearest(a, b)
            for got in (metric.nearest(a, b),
                        metric.nearest(a, b, metric.sq_norms(a),
                                       metric.sq_norms(b))):
                assert got[0].tobytes() == ref_d.tobytes(), seed
                assert got[1].tobytes() == ref_i.tobytes(), seed
        assert calls

    @pytest.mark.parametrize("y, moves", [
        ([np.nextafter(4.0, np.inf), 4.0], True),
        ([-1e-20, -5e-20], True),
        ([9.0, np.nextafter(4.0, np.inf), 7.0, 4.0], True),
        ([0.0, -3e-18, 1.0], True),
        # 4 + 2 ulp passes the bound but its root is nextafter(2, inf).
        ([4.0 + 2 * np.spacing(4.0), 4.0], False),
    ])
    def test_root_tie_rows(self, y, moves, monkeypatch):
        """Hand-built squared distances with an entry before their first
        minimum that passes the ``nextafter`` bound. The tie branch runs;
        it moves the index where that entry has the same root
        ``sqrt(clip(y))`` as the minimum, and only there."""
        calls = []
        ties = metric._root_ties
        monkeypatch.setattr(metric, "_root_ties",
                            lambda *a: calls.append(1) or ties(*a))
        y = np.array([y])
        root = np.sqrt(np.clip(y, 0.0, None))
        assert (y.argmin(axis=1) != root.argmin(axis=1)) == moves
        work = y.copy()
        dist, idx = metric._row_min_root(work)
        assert dist.tobytes() == root.min(axis=1).tobytes()
        assert idx.tobytes() == root.argmin(axis=1).tobytes()
        assert calls
        assert work.tobytes() == y.tobytes()  # the inf entries restored

    @pytest.mark.parametrize("dim", [1, 7, 50])
    def test_block_norms_are_slices_of_stream_norms(self, dim):
        """A row's squared norm does not depend on the other rows: a
        block's norms, and a single row's, equal the matching slice of the
        whole stream's, as bytes. The doubling coreset caches them."""
        g = np.random.default_rng(dim)
        P = g.normal(size=(1000, dim)) * 10.0 ** g.integers(-3, 7, (1000, 1))
        P += g.uniform(-1e6, 1e6, dim)
        full = metric.sq_norms(P)
        for lo in (0, 1, 128, 500, 999):
            for hi in (lo + 1, lo + 3, lo + 128):
                assert (metric.sq_norms(P[lo:hi]).tobytes()
                        == full[lo:hi].tobytes())


class TestMinDist:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_matrix(self, seed):
        g = np.random.default_rng(seed)
        pts, ctr = g.normal(size=(40, 3)), g.normal(size=(6, 3))
        d, a = metric.min_dist(pts, ctr)
        full = naive_cdist(pts, ctr)
        np.testing.assert_allclose(d, full.min(axis=1), atol=1e-9)
        np.testing.assert_array_equal(a, full.argmin(axis=1))

    def test_chunking_consistent(self, monkeypatch):
        monkeypatch.setattr(metric, "_CHUNK_ENTRIES", 10)
        g = np.random.default_rng(4)
        pts, ctr = g.normal(size=(23, 2)), g.normal(size=(4, 2))
        d, a = metric.min_dist(pts, ctr)
        full = naive_cdist(pts, ctr)
        np.testing.assert_allclose(d, full.min(axis=1), atol=1e-9)
        np.testing.assert_array_equal(a, full.argmin(axis=1))

    @pytest.mark.parametrize("chunk", [None, 10, 1000])
    def test_equals_cdist_chunks(self, chunk, monkeypatch):
        """``min_dist`` equals the scan it replaced, ``cdist`` per chunk
        of points then the first minimum, as bytes."""
        if chunk is not None:
            monkeypatch.setattr(metric, "_CHUNK_ENTRIES", chunk)
        for seed in range(40):
            pts, ctr = _nearest_cases(seed)
            dist, assign = np.empty(len(pts)), np.empty(len(pts), np.int64)
            step = max(1, metric._CHUNK_ENTRIES // len(ctr))
            for lo in range(0, len(pts), step):
                D = metric.cdist(pts[lo:lo + step], ctr)
                assign[lo:lo + step] = D.argmin(axis=1)
                dist[lo:lo + step] = D.min(axis=1)
            d, a = metric.min_dist(pts, ctr)
            assert d.tobytes() == dist.tobytes(), seed
            assert a.tobytes() == assign.tobytes(), seed

    def test_point_on_center(self):
        ctr = np.array([[0.0, 0.0], [5.0, 5.0]])
        d, a = metric.min_dist(ctr, ctr)
        np.testing.assert_allclose(d, 0.0, atol=1e-9)
        np.testing.assert_array_equal(a, [0, 1])


class TestRadius:
    def test_plain_radius(self, three_blobs):
        ctr = np.array([[0, 0], [10, 0], [0, 10]], dtype=float)
        r = metric.radius(three_blobs, ctr)
        d, _ = metric.min_dist(three_blobs, ctr)
        assert r == pytest.approx(d.max())

    @pytest.mark.parametrize("z", [0, 1, 3, 5])
    def test_outlier_radius_drops_farthest(self, z):
        dist = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert metric.radius_from_distances(dist, z) == 6.0 - z

    def test_z_ge_n_gives_zero(self):
        assert metric.radius_from_distances(np.array([1.0, 2.0]), 2) == 0.0
        assert metric.radius_from_distances(np.array([1.0, 2.0]), 5) == 0.0

    def test_outliers_excluded(self, blobs_with_outliers):
        pts, mask = blobs_with_outliers
        ctr = np.array([[0, 0], [10, 0], [0, 10]], dtype=float)
        r_all = metric.radius(pts, ctr, 0)
        r_z = metric.radius(pts, ctr, int(mask.sum()))
        assert r_z < 5.0 < 100.0 < r_all

    def test_empty_centers_rejected(self):
        with pytest.raises(Exception):
            metric.radius(np.zeros((3, 2)), np.zeros((0, 2)))


class TestGapsAndDiameter:
    def test_pairwise_min_gap(self):
        pts = np.array([[0.0, 0], [1.0, 0], [5.0, 0]])
        assert metric.min_gap(metric.cdist(pts, pts)) == pytest.approx(1.0)

    def test_min_gap_single_point(self):
        pts = np.zeros((1, 2))
        assert metric.min_gap(metric.cdist(pts, pts)) == 0.0

    def test_min_gap_duplicates(self):
        pts = np.array([[1.0, 1], [1.0, 1], [3.0, 3]])
        assert metric.min_gap(metric.cdist(pts, pts)) == 0.0


class TestBruteForce:
    def test_kcenter_known_instance(self):
        pts = np.array([[0.0, 0], [1.0, 0], [10.0, 0], [11.0, 0]])
        r, c = brute_force_kcenter(pts, 2)
        assert r == pytest.approx(1.0)

    def test_kcenter_outliers_known_instance(self):
        pts = np.array([[0.0, 0], [1.0, 0], [10.0, 0], [11.0, 0], [99.0, 99]])
        r, _ = brute_force_kcenter_outliers(pts, 2, 1)
        assert r == pytest.approx(1.0)

    def test_outliers_relax_objective(self, tiny_points):
        r0, _ = brute_force_kcenter_outliers(tiny_points, 3, 0)
        r2, _ = brute_force_kcenter_outliers(tiny_points, 3, 2)
        assert r2 <= r0

    def test_eq1_rkz_vs_rkplusz(self, tiny_points):
        # Equation (1) of the paper: r*_{k+z}(S) <= r*_{k,z}(S).
        k, z = 2, 2
        r_kz, _ = brute_force_kcenter_outliers(tiny_points, k, z)
        r_kpz, _ = brute_force_kcenter(tiny_points, k + z)
        assert r_kpz <= r_kz + 1e-12

    def test_invalid_k(self, tiny_points):
        with pytest.raises(ValueError):
            brute_force_kcenter(tiny_points, 0)
        with pytest.raises(ValueError):
            brute_force_kcenter(tiny_points, len(tiny_points))

    def test_invalid_z(self, tiny_points):
        with pytest.raises(ValueError):
            brute_force_kcenter_outliers(tiny_points, 2, -1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_kcenter_radius_is_achievable(self, seed, k):
        g = np.random.default_rng(seed)
        pts = g.uniform(-1, 1, (7, 2))
        r, c = brute_force_kcenter(pts, k)
        assert metric.radius(pts, pts[list(c)]) == pytest.approx(r)
