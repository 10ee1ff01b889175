"""Tests for the four end-to-end streaming algorithms: CORESETSTREAM,
BASESTREAM, CORESETOUTLIERS and BASEOUTLIERS."""
import numpy as np
import pytest

from repro.core.metric import cdist, radius
from repro.streaming import common
from repro.streaming.base_outliers import (
    _OutlierInstance,
    base_stream_outliers,
)
from repro.streaming.base_stream import _Instance, base_stream_kcenter
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.coreset_stream import coreset_stream_kcenter
from tests.brute_force import brute_force_kcenter_outliers
from tests.conftest import float_stream, grid_stream, planted_clusters


@pytest.fixture(scope="module")
def stream_blobs():
    """4 well-separated blobs; optimum for k=4 is ~ the blob spread (<2),
    while any 3-center solution pays the ~40 separation."""
    pts = planted_clusters(
        60, [(0, 0), (40, 0), (0, 40), (40, 40)], 0.5, seed=10
    )
    g = np.random.default_rng(11)
    return pts[g.permutation(len(pts))]


@pytest.fixture(scope="module")
def stream_blobs_outliers():
    pts = planted_clusters(60, [(0, 0), (40, 0), (0, 40)], 0.5, seed=12)
    far = np.array([[500.0, 500], [-400.0, 300], [300.0, -500], [-450.0, -450]])
    allpts = np.vstack([pts, far])
    g = np.random.default_rng(13)
    return allpts[g.permutation(len(allpts))], len(far)


class TestCoresetStream:
    def test_recovers_planted_clusters(self, stream_blobs):
        res = coreset_stream_kcenter(stream_blobs, 4, tau=16)
        assert radius(stream_blobs, res.centers) < 5.0

    def test_space_bound(self, stream_blobs):
        res = coreset_stream_kcenter(stream_blobs, 4, tau=16)
        assert res.space <= 4 * 4 + 1

    def test_returns_k_centers(self, stream_blobs):
        res = coreset_stream_kcenter(stream_blobs, 4, tau=8)
        assert len(res.centers) == 4

    @pytest.mark.parametrize("mu", [1, 2, 4, 8])
    def test_throughput_positive(self, stream_blobs, mu):
        res = coreset_stream_kcenter(stream_blobs, 4, tau=4 * mu)
        assert res.timings["pass"] > 0
        assert res.n_processed == len(stream_blobs)

    def test_tau_below_k_rejected(self, stream_blobs):
        with pytest.raises(ValueError):
            coreset_stream_kcenter(stream_blobs, 4, tau=2)

    def test_larger_mu_no_worse_radius(self, stream_blobs):
        r1 = radius(stream_blobs,
                    coreset_stream_kcenter(stream_blobs, 4, tau=4).centers)
        r8 = radius(stream_blobs,
                    coreset_stream_kcenter(stream_blobs, 4, tau=32).centers)
        assert r8 <= r1 * 1.5 + 1e-9  # monotone in expectation, slack for ties


class TestBaseStream:
    def test_recovers_planted_clusters(self, stream_blobs):
        res = base_stream_kcenter(stream_blobs, 4, m=4)
        assert radius(stream_blobs, res.centers) < 10.0

    def test_at_most_k_centers(self, stream_blobs):
        res = base_stream_kcenter(stream_blobs, 4, m=2)
        assert 1 <= len(res.centers) <= 4

    def test_space_reported(self, stream_blobs):
        res = base_stream_kcenter(stream_blobs, 4, m=8)
        assert res.space == 8 * 4

    def test_invalid_m(self, stream_blobs):
        with pytest.raises(ValueError):
            base_stream_kcenter(stream_blobs, 4, m=0)

    def test_degenerate_few_distinct(self):
        pts = np.tile([[1.0, 1.0]], (10, 1))
        res = base_stream_kcenter(pts, 3, m=2)
        assert radius(pts, res.centers) == pytest.approx(0.0, abs=1e-9)

    def test_more_instances_finer_radius(self, stream_blobs):
        """m=16's guess ladder is finer than m=1's: final radius should not
        be substantially worse."""
        r1 = radius(stream_blobs,
                    base_stream_kcenter(stream_blobs, 4, m=1).centers)
        r16 = radius(stream_blobs,
                     base_stream_kcenter(stream_blobs, 4, m=16).centers)
        assert r16 <= r1 * 2.0 + 1e-9


class TestCoresetOutliers:
    def test_excludes_planted_outliers(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        res = coreset_stream_outliers(pts, 3, z, tau=2 * (3 + z))
        assert radius(pts, res.centers, z) < 5.0

    def test_space_bound(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        res = coreset_stream_outliers(pts, 3, z, tau=2 * (3 + z))
        assert res.space <= 2 * (3 + z) + 1

    def test_theorem3_bound_small_instance(self):
        """(3+eps)-approximation against the brute-force optimum."""
        g = np.random.default_rng(20)
        pts = g.uniform(-1, 1, (10, 2))
        k, z = 2, 1
        opt, _ = brute_force_kcenter_outliers(pts, k, z)
        # generous coreset (mu large) -> near-sequential quality
        res = coreset_stream_outliers(pts, k, z, tau=9, eps_hat=0.1)
        got = radius(pts, res.centers, z)
        assert got <= (3 + 6 * 0.1) * opt + 1e-6

    def test_tau_validation(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        with pytest.raises(ValueError):
            coreset_stream_outliers(pts, 3, z, tau=2)


class TestBaseOutliers:
    def test_excludes_planted_outliers(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        res = base_stream_outliers(pts, 3, z, m=2)
        assert radius(pts, res.centers, z) < 20.0

    def test_at_most_k_centers(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        res = base_stream_outliers(pts, 3, z, m=1)
        assert 1 <= len(res.centers) <= 3

    def test_space_larger_than_coreset_stream(self, stream_blobs_outliers):
        """The paper's central space comparison: BASEOUTLIERS burns ~k*z
        memory where CORESETOUTLIERS uses ~(k+z)."""
        pts, z = stream_blobs_outliers
        base = base_stream_outliers(pts, 3, z, m=1)
        ours = coreset_stream_outliers(pts, 3, z)
        assert base.space > ours.space

    def test_invalid_params(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        with pytest.raises(ValueError):
            base_stream_outliers(pts, 3, z, m=0)
        with pytest.raises(ValueError):
            base_stream_outliers(pts, 3, 0, m=1)


class TestEarlyRepeat:
    """A point repeated among the first seed_size arrivals must not stop
    the [27] baselines from seeding: they then store their instance budget,
    not the whole stream."""

    def test_base_stream_seeds(self, stream_blobs):
        pts = stream_blobs.copy()
        pts[1] = pts[0]
        k, m = 4, 2
        res = base_stream_kcenter(pts, k, m=m)
        assert res.space == m * k
        # one center per planted blob
        assert len(np.unique(res.centers, axis=0)) == len(res.centers) == k
        assert radius(pts, res.centers) < 10.0

    def test_base_outliers_seeds(self, stream_blobs_outliers):
        pts, z = stream_blobs_outliers
        pts = pts.copy()
        pts[1] = pts[0]
        k, m = 3, 2
        res = base_stream_outliers(pts, k, z, m=m)
        assert res.space == m * (k * z + z + k)
        assert len(np.unique(res.centers, axis=0)) == len(res.centers) == k
        assert radius(pts, res.centers, z) < 20.0


def covered(p, centers, thresh) -> bool:
    """The per-point coverage test the block scans replaced."""
    if not centers:
        return False
    d = cdist(p[None, :], np.asarray(centers))[0]
    return float(d.min()) <= thresh


def base_stream_reference(inst: _Instance, points) -> None:
    for p in points:
        if covered(p, inst.centers, 2.0 * inst.r):
            continue
        inst.centers.append(p)
        while len(inst.centers) > inst.k:
            inst.r *= 2.0
            inst._recluster()


def base_outliers_reference(inst: _OutlierInstance, points) -> None:
    for p in points:
        if covered(p, inst.centers, 4.0 * inst.r):
            continue
        inst.free.append(p)
        inst._consolidate()


def grid_cases(n=200):
    """(stream, scale) pairs: integer-grid streams (exact distances) in
    1-4 dimensions, with a threshold scale drawn from the stream's own
    distances so that some points sit exactly at it."""
    for seed in range(24):
        g = np.random.default_rng(2000 + seed)
        pts = grid_stream(seed, n, int(g.integers(1, 5)))
        D = cdist(pts[:20], pts[:20])
        yield pts, float(g.choice(D[D > 0]))


@pytest.mark.parametrize("block", [1, 3, None])
class TestBlockScanReference:
    """On exact distances the block scans of the baselines equal the
    per-point loops they replaced, at any block size."""

    @pytest.fixture(autouse=True)
    def _block(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(common, "BLOCK_ROWS", block)

    def test_base_stream_instance(self, block):
        for pts, r in grid_cases():
            for k in (1, 3, 6):
                got, ref = _Instance(k=k, r=r / 4), _Instance(k=k, r=r / 4)
                got.process(pts)
                base_stream_reference(ref, pts)
                assert got.r == ref.r
                assert np.array_equal(got.centers, ref.centers)

    def test_base_outliers_instance(self, block):
        for pts, r in grid_cases(n=120):
            for k, z in ((1, 1), (3, 2)):
                got = _OutlierInstance(k=k, z=z, r=r / 8)
                ref = _OutlierInstance(k=k, z=z, r=r / 8)
                got.process(pts)
                base_outliers_reference(ref, pts)
                assert got.r == ref.r
                assert np.array_equal(got.stored_points(), ref.stored_points())

def cdist_first_far(D, thresh) -> int:
    """The block-scan step before ``metric.nearest``: the first row of
    ``D = cdist(block, centers)`` whose row minimum exceeds ``thresh``."""
    far = np.flatnonzero(D[np.arange(len(D)), D.argmin(axis=1)] > thresh)
    return int(far[0]) if len(far) else len(D)


def base_stream_cdist_scan(inst: _Instance, points) -> None:
    i, n = 0, len(points)
    while i < n:
        if inst.centers:
            block = points[i : i + common.BLOCK_ROWS]
            D = cdist(block, np.asarray(inst.centers))
            f = cdist_first_far(D, 2.0 * inst.r)
            i += f
            if f == len(block):
                continue
        inst.centers.append(points[i])
        i += 1
        while len(inst.centers) > inst.k:
            inst.r *= 2.0
            inst._recluster()


def base_outliers_cdist_scan(inst: _OutlierInstance, points) -> None:
    i, n = 0, len(points)
    while i < n:
        if inst.centers:
            block = points[i : i + common.BLOCK_ROWS]
            D = cdist(block, np.asarray(inst.centers))
            f = cdist_first_far(D, 4.0 * inst.r)
            i += f
            if f == len(block):
                continue
        inst.free.append(points[i])
        i += 1
        # _consolidate, with the re-processed summary tested by cdist.
        while True:
            inst._promote_dense()
            if len(inst.centers) <= inst.k and len(inst.free) <= inst.free_cap:
                break
            stored = inst.centers + inst.free
            inst.r *= 2.0
            inst.centers, inst.free = [], []
            for q in stored:
                if covered(q, inst.centers, 4.0 * inst.r):
                    continue
                inst.free.append(q)
                inst._promote_dense()


def float_cases(n):
    """(stream, scale) pairs: 24 float streams with repeated rows, with a
    threshold scale drawn from the stream's own distances."""
    for seed in range(24):
        g = np.random.default_rng([seed, 9])
        pts = float_stream(seed, n, int(g.integers(1, 8)))
        D = cdist(pts[:20], pts[:20])
        yield pts, float(g.choice(D[D > 0]))


class TestNearestScan:
    """On float streams with repeated rows the block scans through
    ``metric.nearest`` equal the ``cdist`` scans they replaced, as bytes."""

    def test_base_stream_instance(self):
        for pts, r in float_cases(400):
            for k in (1, 3, 6):
                got, ref = _Instance(k=k, r=r / 4), _Instance(k=k, r=r / 4)
                got.process(pts)
                base_stream_cdist_scan(ref, pts)
                assert got.r == ref.r
                assert (np.asarray(got.centers).tobytes()
                        == np.asarray(ref.centers).tobytes())

    def test_base_outliers_instance(self):
        for pts, r in float_cases(150):
            for k, z in ((1, 1), (3, 2)):
                got = _OutlierInstance(k=k, z=z, r=r / 8)
                ref = _OutlierInstance(k=k, z=z, r=r / 8)
                got.process(pts)
                base_outliers_cdist_scan(ref, pts)
                assert got.r == ref.r
                assert (got.stored_points().tobytes()
                        == ref.stored_points().tobytes())
