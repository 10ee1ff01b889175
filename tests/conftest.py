"""Shared fixtures for the test suite (the Spark session fixture lives in
the repo-root conftest.py; these are driver-side numpy datasets)."""
from __future__ import annotations

import numpy as np
import pytest


def planted_clusters(
    n_per: int,
    centers,
    std: float,
    *,
    seed: int = 0,
    dim: int | None = None,
) -> np.ndarray:
    """Well-separated Gaussian blobs — the workhorse test instance: the
    optimal k-center structure is known by construction."""
    g = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    if dim is not None and centers.shape[1] != dim:
        raise ValueError("centers dim mismatch")
    return np.vstack(
        [c + g.normal(0.0, std, (n_per, centers.shape[1])) for c in centers]
    )


@pytest.fixture(scope="session")
def three_blobs() -> np.ndarray:
    """90 points in 3 tight, far-apart 2-D clusters (k=3 is obvious)."""
    return planted_clusters(30, [(0, 0), (10, 0), (0, 10)], 0.3, seed=1)


@pytest.fixture(scope="session")
def blobs_with_outliers() -> tuple[np.ndarray, np.ndarray]:
    """three_blobs plus 5 distant outliers; returns (points, outlier_mask)."""
    base = planted_clusters(30, [(0, 0), (10, 0), (0, 10)], 0.3, seed=2)
    far = np.array(
        [[200.0, 200.0], [-180.0, 150.0], [150.0, -170.0],
         [-160.0, -160.0], [250.0, 0.0]]
    )
    pts = np.vstack([base, far])
    mask = np.zeros(len(pts), dtype=bool)
    mask[len(base):] = True
    return pts, mask


@pytest.fixture(scope="session")
def tiny_points() -> np.ndarray:
    """10 points in 2-D, small enough for brute-force optima."""
    g = np.random.default_rng(3)
    return g.uniform(-5, 5, (10, 2))


def grid_stream(seed: int, n: int, dim: int) -> np.ndarray:
    """A stream of integer points whose spread grows 64x along the stream
    (so new centers and merges keep coming), with ~20% of the rows repeating
    an earlier row. Integer coordinates make every squared distance an exact
    integer, so a ``cdist`` entry is the same whichever block of rows it is
    computed in."""
    g = np.random.default_rng(seed)
    scale = 2.0 ** (6.0 * np.arange(n) / n)
    pts = np.rint(g.normal(size=(n, dim)) * 3.0 * scale[:, None])
    for i in np.flatnonzero(g.random(n) < 0.2):
        if i:
            pts[i] = pts[g.integers(0, i)]
    return pts


def float_stream(seed: int, n: int, dim: int) -> np.ndarray:
    """A float stream whose spread grows 64x along the stream, offset up to
    1e3 from the origin, with about half of its rows repeating an earlier
    row, a fifth of those moved by ~1e-12 relative. The expanded distance
    form leaves rounding noise, often negative, on the squared distance of
    a row to its copy or near-copy, so distinct squared distances can
    share one clipped root."""
    g = np.random.default_rng([seed, 3])
    scale = 2.0 ** (6.0 * np.arange(n) / n) * g.uniform(0.01, 10)
    pts = g.normal(size=(n, dim)) * scale[:, None] + g.uniform(-1e3, 1e3, dim)
    for i in np.flatnonzero(g.random(n) < 0.5):
        if i:
            pts[i] = pts[g.integers(0, i)]
            if g.random() < 0.2:
                pts[i] *= 1.0 + 1e-12 * g.normal(size=dim)
    return pts


def split_tiles(monkeypatch, tiles: int) -> None:
    """Make ``metric.pair_tiles`` split every set of two or more points
    into about ``tiles`` row tiles, however small the set: its tiled path
    then runs on test-sized inputs."""
    from repro.core import metric

    monkeypatch.setattr(metric, "_DENSE_ROWS", 1)
    monkeypatch.setattr(metric, "_TILES", tiles)


def tiles_matrix(P) -> np.ndarray:
    """The full matrix a ``metric.PairTiles`` describes, row by row."""
    return np.stack([P.row(x) for x in range(len(P))])
