"""Euclidean-metric primitives shared by every algorithm in the repo.

All algorithms in the paper touch the input only through pairwise Euclidean
distances, so this module is the single place where geometry happens:
chunked distance computation, nearest-center assignment, clustering radii
with and without outliers, the closest-pair gap, and tiny brute-force
solvers used as exact oracles in tests.

Points are ``float64`` numpy arrays of shape ``(n, d)``; centers are either
index arrays into a point set or ``(m, d)`` coordinate arrays.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

# Cap on the number of scalar distance entries materialized at once by the
# chunked helpers: one ~64 MB float64 ``cdist`` output per chunk (plus its
# tile-sized temporary). Keeps the driver comfortable even for coreset
# unions of a few tens of thousands of points.
_CHUNK_ENTRIES = 8_000_000

# Entries per row tile of ``cdist``'s elementwise epilogue (1 MB of
# float64): the one temporary it allocates. Large enough that the stream's
# blocks (128 rows against a coreset of up to ~1000 points) fit one tile,
# under 2% of the |T|^2 matrix at |T| = 2720.
_TILE_ENTRIES = 1 << 17


def as_points(x) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous ``(n, d)`` float64 array."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {a.shape}")
    return a


def finite_points(x) -> np.ndarray:
    """``as_points`` plus a check that every coordinate is finite.

    A NaN or infinite coordinate poisons every distance it touches: the
    streaming guess and merge rules then double forever and the searches
    return degenerate answers. Each public algorithm entry point calls this
    once on its input; the per-point primitives (``as_points``, ``cdist``)
    stay unchecked.
    """
    a = as_points(x)
    if not np.isfinite(a).all():
        raise ValueError("points contain NaN or infinite coordinates")
    return a


def check_kz(k: int, z: int = 0) -> None:
    """Reject k < 1 or z < 0. The entry points call this before they read
    their input, so a bad k or z fails at once instead of after a pass."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")


def cdist(a, b) -> np.ndarray:
    """Dense Euclidean distance matrix of shape ``(len(a), len(b))``.

    Uses the expanded ``(|a|^2 + |b|^2) - 2ab`` form (one GEMM) with clipping
    to guard the tiny negative values the expansion can produce. Only one
    ``len(a) x len(b)`` buffer is allocated: the GEMM's output. The norm
    sum, the doubling, the difference, the clip and the square root then
    run in place over it, in row tiles of at most ``_TILE_ENTRIES`` entries
    with one tile-sized temporary for the norm sum. The operations and
    their order are those of the plain expression, so the result is
    bit-for-bit the same. (Row-blocking the GEMM itself would not be.)

    ``cdist(T, T)`` is exactly symmetric, bit for bit: ``T`` is converted
    once, the norm sum ``na[i] + na[j]`` is symmetric, and numpy evaluates
    ``a @ a.T`` on one buffer with ``syrk`` and mirrors the triangle.
    ``outliers_cluster`` relies on this. Two separate conversions of the
    same float32 or non-contiguous input would go through a general GEMM,
    which is not symmetric.
    """
    same = b is a
    a = as_points(a)
    b = a if same else as_points(b)
    na, nb = (a * a).sum(axis=1), (b * b).sum(axis=1)
    out = a @ b.T
    step = max(1, _TILE_ENTRIES // max(1, len(b)))
    tmp = np.empty((min(step, len(a)), len(b)))
    for lo in range(0, len(a), step):
        o = out[lo:lo + step]
        t = np.add.outer(na[lo:lo + step], nb, out=tmp[: len(o)])
        o *= 2.0
        np.subtract(t, o, out=o)
        np.clip(o, 0.0, None, out=o)
        np.sqrt(o, out=o)
    return out


def min_dist(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to its closest center, plus the argmin.

    Chunked over points so that ``len(points) * len(centers)`` never
    materializes more than ``_CHUNK_ENTRIES`` scalars at once.

    Returns ``(dist, assign)`` with ``dist[i] = d(points[i], centers)`` and
    ``assign[i]`` the index (into ``centers``) of the closest center.
    """
    points, centers = as_points(points), as_points(centers)
    n, m = len(points), len(centers)
    dist = np.empty(n, dtype=np.float64)
    assign = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, m))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        d = cdist(points[lo:hi], centers)
        assign[lo:hi] = d.argmin(axis=1)
        dist[lo:hi] = d[np.arange(hi - lo), assign[lo:hi]]
    return dist, assign


def radius(points, centers, z: int = 0) -> float:
    """Radius of the clustering of ``points`` induced by ``centers``,
    ignoring the ``z`` farthest points (the paper's r_{T,Z_T}(S)).

    With ``z = 0`` this is the plain k-center objective r_T(S).
    """
    d, _ = min_dist(points, centers)
    return radius_from_distances(d, z)


def radius_from_distances(dist: np.ndarray, z: int = 0) -> float:
    """z-outlier radius given precomputed closest-center distances.

    The radius excluding the z farthest points is the (z+1)-th largest
    distance; if ``z >= n`` every point may be discarded and the radius is 0.
    """
    n = len(dist)
    if z >= n:
        return 0.0
    if z == 0:
        return float(dist.max(initial=0.0))
    return float(np.partition(dist, n - z - 1)[n - z - 1])


def min_gap(D: np.ndarray) -> float:
    """Distance of the closest pair of P, the smallest off-diagonal entry
    of ``D = cdist(P, P)`` (0.0 for fewer than two points). The diagonal is
    skipped, not trusted: ``cdist`` can leave noise on a self-distance."""
    n = len(D)
    if n < 2:
        return 0.0
    return float(D.min(where=~np.eye(n, dtype=bool), initial=np.inf))


# ---------------------------------------------------------------------------
# Exact brute-force solvers — test oracles only (exponential in k).
# ---------------------------------------------------------------------------

def brute_force_kcenter(points, k: int) -> tuple[float, tuple[int, ...]]:
    """Exact optimal k-center radius r*_k by enumerating center subsets:
    the z = 0 case below.

    Only viable for tiny instances (n choose k small); used by tests to
    validate the 2-approximation of GMM and the (2+eps) MR bound.
    """
    return brute_force_kcenter_outliers(points, k, 0)


def brute_force_kcenter_outliers(
    points, k: int, z: int
) -> tuple[float, tuple[int, ...]]:
    """Exact optimal radius r*_{k,z} with z discardable outliers.

    Enumerates center subsets; for each, the objective is the (z+1)-th
    largest closest-center distance.
    """
    points = as_points(points)
    n = len(points)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if not 0 <= z < n:
        raise ValueError(f"need 0 <= z < n, got z={z}, n={n}")
    full = cdist(points, points)
    best_r, best_c = np.inf, None
    for comb in combinations(range(n), k):
        d = full[:, comb].min(axis=1)
        r = radius_from_distances(d, z)
        if r < best_r:
            best_r, best_c = float(r), comb
    return best_r, best_c
