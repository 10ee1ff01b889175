"""Tests for ``common.greedy_cover``, the one greedy behind the doubling
merge rule and BASESTREAM's re-clustering: it must equal the two loops it
replaced, including which kept point wins an exact tie."""
import numpy as np
import pytest

from repro.core.metric import cdist
from repro.streaming.common import greedy_cover
from tests.conftest import grid_stream


def fold_reference(P, w, thresh):
    """The doubling coreset's index loop: each point folds into the first
    nearest kept point within ``thresh``, else it is kept. Returns
    ``(keep, merged_into, new_w)``."""
    m = len(P)
    D = cdist(P, P)
    keep: list[int] = []
    merged_into = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        if keep:
            dk = D[i, keep]
            j = int(np.argmin(dk))
            if dk[j] <= thresh:
                merged_into[i] = keep[j]
                continue
        keep.append(i)
    new_w = w.copy()
    for i in range(m):
        if merged_into[i] >= 0:
            new_w[merged_into[i]] += new_w[i]
    return keep, merged_into, new_w[keep]


def recluster_reference(centers, thresh):
    """BASESTREAM's per-center loop: keep a center unless it is within
    ``thresh`` of an already kept one."""
    kept: list[np.ndarray] = []
    for c in centers:
        if kept:
            d = cdist(c[None, :], np.asarray(kept))[0]
            if float(d.min()) <= thresh:
                continue
        kept.append(c)
    return np.asarray(kept)


def cases(exact_only=False):
    """(points, weights, thresh) triples: integer grids in 1-4 dimensions
    (exact distances, so points sit exactly at the threshold and exactly
    between two kept points), at thresholds 0 and drawn from the points' own
    distances; and, unless ``exact_only``, float points with repeated rows,
    at thresholds 0 and drawn from their distances."""
    for seed in range(40):
        g = np.random.default_rng(3000 + seed)
        if seed % 2:
            P = grid_stream(seed, int(g.integers(2, 120)), int(g.integers(1, 5)))
        elif exact_only:
            continue
        else:
            n, d = int(g.integers(2, 120)), int(g.integers(1, 6))
            P = g.normal(size=(n, d)) * g.uniform(0.01, 10)
            for i in np.flatnonzero(g.random(n) < 0.4):
                if i:
                    P[i] = P[g.integers(0, i)]
        w = g.integers(1, 50, len(P))
        D = cdist(P, P)
        for thresh in (0.0, *g.choice(D.ravel(), 3)):
            yield P, w, float(thresh)


def test_equals_fold_loop():
    ties = zeros = 0
    for P, w, thresh in cases():
        keep, merged_into, new_w = fold_reference(P, w, thresh)
        owner = greedy_cover(cdist(P, P), thresh)
        kept = np.flatnonzero(owner == np.arange(len(P)))
        assert kept.tolist() == keep
        assert np.array_equal(owner[merged_into >= 0],
                              merged_into[merged_into >= 0])
        got_w = np.bincount(owner, weights=w, minlength=len(P))[kept]
        assert np.array_equal(got_w, new_w)
        # A folded point equidistant from two kept points must go to the
        # earlier one: count such ties so the cases surely contain some.
        D = cdist(P, P)
        for i in np.flatnonzero(merged_into >= 0):
            dk = D[i, keep]
            ties += (dk == dk.min()).sum() > 1
        zeros += thresh == 0.0 and len(keep) < len(P)
    assert ties > 0 and zeros > 0, (ties, zeros)


def test_equals_recluster_loop():
    """On exact distances only: the loop computes each center's distances
    alone, one ``cdist`` row at a time, and BLAS may round those differently
    from the same entries of ``cdist(P, P)`` (a repeated float row can be
    at 0 in one and not in the other)."""
    for P, _, thresh in cases(exact_only=True):
        owner = greedy_cover(cdist(P, P), thresh)
        got = P[owner == np.arange(len(P))]
        assert np.array_equal(got, recluster_reference(P, thresh))


def test_cover_properties():
    """Kept points are pairwise farther than the threshold; every point is
    within it of its owner, which is kept and not after it."""
    for P, _, thresh in cases():
        D = cdist(P, P)
        owner = greedy_cover(D, thresh)
        n = len(P)
        kept = owner == np.arange(n)
        assert kept[owner].all() and (owner <= np.arange(n)).all()
        assert (D[np.arange(n), owner][~kept] <= thresh).all()
        Dk = D[np.ix_(kept, kept)]
        assert (Dk[~np.eye(kept.sum(), dtype=bool)] > thresh).all()


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_points(n):
    P = np.zeros((n, 2))
    assert greedy_cover(cdist(P, P), 1.0).tolist() == list(range(n))
