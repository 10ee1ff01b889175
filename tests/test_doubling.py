"""Tests for repro.streaming.doubling — the weighted doubling algorithm's
invariants (a)-(e) of Section 4, checked after every processed point."""
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metric
from repro.core.metric import as_points, cdist, min_dist
from repro.streaming import common
from repro.streaming.doubling import DoublingCoreset
from tests.brute_force import brute_force_kcenter
from tests.conftest import float_stream, grid_stream, planted_clusters


def check_invariants(dc: DoublingCoreset, seen: np.ndarray) -> None:
    """Invariants (a)-(d) (plus coverage) against the processed prefix."""
    T, w = dc.points, dc.weights
    # (a) |T| <= tau
    assert dc.size <= dc.tau
    # (b) pairwise distance > 4*phi
    if dc.size >= 2:
        D = cdist(T, T)
        off = D[~np.eye(dc.size, dtype=bool)]
        assert off.min() > 4.0 * dc.phi - 1e-9
    # (c) every processed point within 8*phi of T
    d, _ = min_dist(seen, T)
    assert d.max() <= 8.0 * dc.phi + 1e-9
    # (d) weights total the processed count
    assert w.sum() == len(seen)
    assert (w >= 1).all()


class TestInvariants:
    @pytest.mark.parametrize("tau", [3, 5, 10])
    @pytest.mark.parametrize("seed", range(3))
    def test_after_every_point(self, tau, seed):
        g = np.random.default_rng(seed)
        pts = g.uniform(-10, 10, (60, 2))
        dc = DoublingCoreset(tau, 2)
        for i in range(len(pts)):
            dc.update(pts[i])
            if dc._initialized:
                check_invariants(dc, pts[: i + 1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_invariants_hypothesis(self, seed, tau):
        g = np.random.default_rng(seed)
        pts = g.normal(size=(40, 3))
        dc = DoublingCoreset(tau, 3).process(pts)
        check_invariants(dc, pts)

    def test_invariant_e_phi_lower_bounds_opt(self):
        """(e): phi <= r*_tau(S), verified against brute force."""
        g = np.random.default_rng(5)
        pts = g.uniform(-1, 1, (12, 2))
        tau = 3
        dc = DoublingCoreset(tau, 2).process(pts)
        opt, _ = brute_force_kcenter(pts, tau)
        assert dc.phi <= opt + 1e-9


class TestMechanics:
    def test_peak_size_bounded(self):
        pts = planted_clusters(50, [(0, 0), (20, 0), (0, 20)], 1.0, seed=1)
        dc = DoublingCoreset(6, 2).process(pts)
        assert dc.peak_size <= 7  # tau + 1 transient

    def test_short_stream_kept_exactly(self):
        pts = np.arange(8, dtype=float).reshape(4, 2)
        dc = DoublingCoreset(10, 2).process(pts)
        T, w, phi = dc.finalize()
        assert len(T) == 4 and (w == 1).all() and phi == 0.0

    def test_weights_sum_large_stream(self):
        pts = planted_clusters(200, [(0, 0), (50, 50)], 2.0, seed=2)
        dc = DoublingCoreset(8, 2).process(pts)
        assert dc.weights.sum() == 400 == dc.n_processed

    def test_all_duplicate_points(self):
        pts = np.tile([[1.0, 2.0]], (20, 1))
        dc = DoublingCoreset(3, 2).process(pts)
        T, w, phi = dc.finalize()
        assert len(T) == 1 and w[0] == 20 and phi == 0.0

    def test_duplicates_then_distinct(self):
        pts = np.vstack([np.tile([[0.0, 0.0]], (5, 1)),
                         [[10.0, 0]], [[0.0, 10]], [[10.0, 10]]])
        dc = DoublingCoreset(2, 2).process(pts)
        assert dc.size <= 2 and dc.weights.sum() == 8

    @pytest.mark.parametrize("seed", range(12))
    def test_repeated_float_rows(self, seed):
        """Float streams with about half their rows repeating an earlier
        row, offset up to 1e3 from the origin, so that ``cdist`` leaves
        rounding noise on near-zero distances: ``process`` ends and
        (a)-(d) hold. A zero gap and the duplicate fold read one matrix, so
        each zero-gap pass of the merge rule drops a center."""
        g = np.random.default_rng(4000 + seed)
        n, d = 300, int(g.integers(1, 8))
        pts = g.normal(size=(n, d)) * g.uniform(0.01, 10)
        pts += g.uniform(-1e3, 1e3, d)
        for i in np.flatnonzero(g.random(n) < 0.5):
            if i:
                pts[i] = pts[g.integers(0, i)]
        dc = DoublingCoreset(int(g.integers(2, 30)), d).process(pts)
        check_invariants(dc, pts)

    def test_dim_mismatch_rejected(self):
        dc = DoublingCoreset(3, 2)
        with pytest.raises(ValueError):
            dc.update([1.0, 2.0, 3.0])

    def test_overflowing_input_raises_promptly(self):
        """Coordinates of 1e200 overflow the squared norms, so every merge
        distance is NaN or inf and no fold drops a center. The merge rule
        raises instead of doubling phi forever (SIGALRM stops a hang)."""
        X = 1e200 * np.random.default_rng(0).standard_normal((200, 2))

        def hang(*_):
            raise TimeoutError("the merge rule kept doubling phi")

        prev = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="phi"
            ):
                DoublingCoreset(12, 2).process(X)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, prev)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            DoublingCoreset(0, 2)

    def test_finalize_copies(self):
        pts = np.random.default_rng(0).normal(size=(30, 2))
        dc = DoublingCoreset(5, 2).process(pts)
        T, w, _ = dc.finalize()
        T[:] = 0.0
        assert not np.allclose(dc.points, 0.0)


class TestCoresetQuality:
    def test_coverage_within_8phi_final(self):
        """Corollary of the invariants: after the stream, every point is
        within 8*phi <= 8*r*_tau(S) of the coreset."""
        pts = planted_clusters(100, [(0, 0), (30, 0), (0, 30), (30, 30)], 1.0,
                               seed=3)
        tau = 16
        dc = DoublingCoreset(tau, 2).process(pts)
        d, _ = min_dist(pts, dc.points)
        assert d.max() <= 8 * dc.phi + 1e-9

    def test_larger_tau_smaller_phi(self):
        pts = planted_clusters(100, [(0, 0), (30, 0), (0, 30)], 1.5, seed=4)
        phi_small = DoublingCoreset(4, 2).process(pts).phi
        phi_large = DoublingCoreset(32, 2).process(pts).phi
        assert phi_large <= phi_small + 1e-12

    def test_order_insensitive_weight_total(self):
        pts = planted_clusters(80, [(0, 0), (40, 40)], 2.0, seed=5)
        g = np.random.default_rng(6)
        shuffled = pts[g.permutation(len(pts))]
        a = DoublingCoreset(6, 2).process(pts)
        b = DoublingCoreset(6, 2).process(shuffled)
        assert a.weights.sum() == b.weights.sum() == len(pts)


class PerPoint(DoublingCoreset):
    """The per-point loop the block scan replaced (one ``cdist`` per point),
    kept as the reference. It also counts the cases the block scan must get
    right: a point exactly at 8*phi, an absorbed point equidistant from two
    centers, and a merge
    followed by more points."""

    def __init__(self, tau, dim):
        super().__init__(tau, dim)
        self.at_8phi = self.nearest_ties = self.merges_midstream = 0

    def process(self, points):
        points = np.asarray(points, dtype=np.float64)
        for i, p in enumerate(points):
            self.n_processed += 1
            if not self._initialized:
                self._append(p, 1)
                if self._m == self.tau + 1:
                    self._seed()
                continue
            d = cdist(p[None, :], self._pts[: self._m])[0]
            j = int(d.argmin())
            self.at_8phi += d[j] == 8.0 * self.phi
            if d[j] <= 8.0 * self.phi:
                self.nearest_ties += (d == d[j]).sum() > 1
                self._w[j] += 1
                continue
            self._append(p, 1)
            if self._m > self.tau:
                self.merges_midstream += i + 1 < len(points)
                self._merge_rule()
        return self


def state(dc: DoublingCoreset):
    return (dc.points.tolist(), dc.weights.tolist(), dc.phi, dc.peak_size,
            dc.n_processed, dc.doublings, dc.size)


def grid_cases():
    """(stream, tau) pairs: integer-grid streams in 1-4 dimensions, some
    shorter than tau + 1."""
    for seed in range(48):
        g = np.random.default_rng(1000 + seed)
        dim = int(g.integers(1, 5))
        tau = int(g.integers(2, 12))
        n = int(g.integers(1, 3 * tau)) if seed % 8 == 0 else 200
        yield grid_stream(seed, n, dim), tau


class TestBlockScan:
    @pytest.mark.parametrize("block", [1, 3, None])
    def test_equals_per_point_reference(self, monkeypatch, block):
        """On exact (integer) distances the block scan reaches the same
        points, weights, phi, peak size, count and doublings as the
        per-point loop, at any block size."""
        if block is not None:
            monkeypatch.setattr(common, "BLOCK_ROWS", block)
        seen = {"at_8phi": 0, "nearest_ties": 0, "merges_midstream": 0,
                "short": 0}
        for pts, tau in grid_cases():
            ref = PerPoint(tau, pts.shape[1]).process(pts)
            got = DoublingCoreset(tau, pts.shape[1]).process(pts)
            assert state(got) == state(ref)
            # A later merge sums the weights it folds, which can hide a
            # point credited to the wrong center: compare every prefix of
            # 20 rows too.
            dim = pts.shape[1]
            a, b = PerPoint(tau, dim), DoublingCoreset(tau, dim)
            for i in range(0, len(pts), 20):
                a.process(pts[i : i + 20])
                b.process(pts[i : i + 20])
                assert state(b) == state(a)
            for key in ("at_8phi", "nearest_ties", "merges_midstream"):
                seen[key] += getattr(ref, key)
            seen["short"] += len(pts) < tau + 1
        # The streams exercise every case the scan must get right.
        assert all(v > 0 for v in seen.values()), seen

    def test_hand_built_stream(self):
        """1-D, tau=2: seeds 0, 1, 3 merge into {0} with phi=1; 8 sits
        exactly at 8*phi and is absorbed; 9 opens a center; 30 opens one
        and the merge rule doubles phi twice (to 4) mid-block, folding 9
        into 0; 5 and 20 join their nearest centers, 0 and 30, and 62 sits
        exactly at 8*phi = 32 from 30 and is absorbed."""
        pts = np.array([0, 1, 3, 8, 9, 30, 5, 20, 62], float)[:, None]
        ref = PerPoint(2, 1).process(pts)
        got = DoublingCoreset(2, 1).process(pts)
        assert state(got) == state(ref)
        assert got.points[:, 0].tolist() == [0.0, 30.0]
        assert got.weights.tolist() == [6, 3]
        assert got.phi == 4.0 and got.doublings == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 8),
           st.lists(st.integers(1, 40), min_size=1, max_size=12))
    def test_chunking_invariant(self, seed, tau, chunks):
        """Feeding a stream in arbitrary chunks gives the same state as one
        call, and invariants (a)-(d) hold after every chunk."""
        pts = grid_stream(seed, 160, 2)
        whole = DoublingCoreset(tau, 2).process(pts)
        dc = DoublingCoreset(tau, 2)
        i = 0
        for c in chunks * (len(pts) // sum(chunks) + 1):
            if i >= len(pts):
                break
            dc.process(pts[i : i + c])
            i += c
            if dc._initialized:
                check_invariants(dc, pts[: min(i, len(pts))])
        assert state(dc) == state(whole)

    def test_update_is_one_row_process(self):
        pts = grid_stream(7, 120, 3)
        a = DoublingCoreset(5, 3).process(pts)
        b = DoublingCoreset(5, 3)
        for p in pts:
            b.update(p)
        assert state(a) == state(b)

    def test_process_dim_mismatch_rejected(self):
        dc = DoublingCoreset(3, 2)
        with pytest.raises(ValueError):
            dc.process(np.zeros((4, 3)))
        assert dc.n_processed == 0


def cdist_first_far(D, thresh):
    """The block-scan step before ``metric.nearest``: the first row of
    ``D = cdist(block, T)`` whose row minimum exceeds ``thresh``, and the
    row argmins before it."""
    nearest = D.argmin(axis=1)
    far = np.flatnonzero(D[np.arange(len(D)), nearest] > thresh)
    f = int(far[0]) if len(far) else len(D)
    return f, nearest[:f]


class CdistScan(DoublingCoreset):
    """The block scan before ``metric.nearest`` and the cached norms: one
    ``cdist`` from each block to T, kept as the reference."""

    def process(self, points):
        P = as_points(points)
        n, i = len(P), 0
        if not self._initialized:
            i = min(n, self.tau + 1 - self._m)
            self._pts[self._m : self._m + i] = P[:i]
            self._w[self._m : self._m + i] = 1
            self._m += i
            self.n_processed += i
            self.peak_size = max(self.peak_size, self._m)
            if self._m == self.tau + 1:
                self._seed()
        while i < n:
            block = P[i : i + common.BLOCK_ROWS]
            m = self._m
            f, nearest = cdist_first_far(
                cdist(block, self._pts[:m]), 8.0 * self.phi
            )
            self._w[:m] += np.bincount(nearest, minlength=m)
            self.n_processed += f
            i += f
            if f == len(block):
                continue
            self._append(block[f], 1)
            self.n_processed += 1
            i += 1
            if self._m > self.tau:
                self._merge_rule()
        return self


class TestNearestScan:
    def test_equals_cdist_scan(self, monkeypatch):
        """On 24 float streams with repeated rows (noisy near-zero squared
        distances) the scan through ``nearest`` with cached norms reaches
        the same points, weights, phi and counts as the ``cdist`` scan, as
        bytes, in one call and in chunks of 50 rows. Some blocks take the
        kernel's square-root tie branch."""
        calls = []
        ties = metric._root_ties
        monkeypatch.setattr(metric, "_root_ties",
                            lambda *a: calls.append(1) or ties(*a))
        for seed in range(24):
            g = np.random.default_rng([seed, 8])
            d = int(g.integers(1, 8))
            pts = float_stream(seed, 600, d)
            tau = int(g.integers(2, 40))
            for chunk in (len(pts), 50):
                ref, got = CdistScan(tau, d), DoublingCoreset(tau, d)
                for i in range(0, len(pts), chunk):
                    ref.process(pts[i : i + chunk])
                    got.process(pts[i : i + chunk])
                assert got.points.tobytes() == ref.points.tobytes(), seed
                assert got.weights.tobytes() == ref.weights.tobytes(), seed
                assert state(got) == state(ref), seed
        assert calls


class TestDoublings:
    def test_counts_merge_rule_doublings(self):
        """Seeds 0, 1, 2 (gap 1, phi 0.5) merge into {0} at phi = 1: one
        doubling. 100 opens a center. Each later point 10^j lands beyond
        8*phi and makes |T| = 3 > tau, so the merge rule doubles phi until
        4*phi >= 10^(j-1), folding 10^(j-1) into 0: phi goes 1 -> 32 (5
        doublings), 32 -> 256 (3), 256 -> 4096 (4). phi = 0.5 * 2^doublings
        throughout."""
        pts = np.array([0, 1, 2, 100, 1000, 10000, 100000], float)[:, None]
        dc = DoublingCoreset(2, 1)
        history = []
        for p in pts:
            dc.update(p)
            history.append(dc.doublings)
            if dc._initialized:
                assert dc.phi == 0.5 * 2.0 ** dc.doublings
        assert history == [0, 0, 1, 1, 6, 9, 13]

    def test_no_doubling_without_merge(self):
        pts = np.array([[0.0], [10.0], [20.0]])
        dc = DoublingCoreset(5, 1).process(pts)
        assert dc.doublings == 0 and dc.phi == 0.0
