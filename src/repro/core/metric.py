"""Euclidean-metric primitives shared by every algorithm in the repo.

All algorithms in the paper touch the input only through pairwise Euclidean
distances, so this module is the single place where geometry happens:
the distance matrix (``cdist``), the round-2 search's pairwise distances
stored once per pair (``pair_tiles``), the nearest-center kernel every
block scan and ``min_dist`` use (``nearest``: ``cdist``'s row minima and
first argmins without a square root per entry), clustering radii with and
without outliers, and the closest-pair gap.

Points are ``float64`` numpy arrays of shape ``(n, d)``; centers are either
index arrays into a point set or ``(m, d)`` coordinate arrays.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# Cap on the number of scalar distance entries materialized at once by
# ``min_dist``: one ~64 MB float64 ``nearest`` buffer per chunk (plus its
# tile-sized temporary). Keeps the driver comfortable even for coreset
# unions of a few tens of thousands of points.
_CHUNK_ENTRIES = 8_000_000

# Entries per row tile of the elementwise epilogue ``cdist`` and
# ``nearest`` share (``_expanded``; 1 MB of float64): the one temporary it
# allocates. Large enough that the stream's blocks (128 rows against a
# coreset of up to ~1000 points) fit one tile, under 2% of the |T|^2
# matrix at |T| = 2720. The tiles split no GEMM, so their size changes no
# bit of either result.
_TILE_ENTRIES = 1 << 17

# ``pair_tiles`` stores up to this many points as one dense tile, the whole
# ``cdist(T, T)``: the stream's final searches (a few hundred points) then
# run OutliersCluster's dense kernel, with no per-tile overhead.
_DENSE_ROWS = 1024

# Row tiles of a larger set: about 16, so that the redundant lower halves
# of the diagonal blocks add about 1/32 to the upper triangle while each
# OutliersCluster pick pays the per-tile overhead only ~16 times.
_TILES = 16

# The least nonzero largest |coordinate| ``finite_points`` accepts: its
# square, 2**-1022, is the smallest normal float64.
_MIN_M = 2.0 ** -511


def as_points(x) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous ``(n, d)`` float64 array."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {a.shape}")
    return a


def finite_points(x) -> np.ndarray:
    """``as_points`` for an algorithm's input: a non-empty ``(n, d)``
    array whose largest |coordinate| M is 0 or lies in
    ``[2**-511, sqrt(max_float64 / (8d))]``, or ``ValueError``.

    A NaN or infinite coordinate poisons every distance it touches: the
    streaming guess and merge rules then double forever and the searches
    return degenerate answers. So does a finite M out of range. With
    every |coordinate| at most M, a squared norm is at most d*M^2, the norm
    sum ``na + nb`` and the doubled product ``2ab`` at most 2d*M^2 each,
    and ``(na + nb) - 2ab`` at most 4d*M^2: the upper bound keeps that
    below the largest float64 with a factor 2 to spare. Below 2**-511, M^2
    is below the smallest normal float64, so squared distances underflow
    and the points collapse to one.

    A 1-D array is rejected rather than read as one point, and an empty
    one with the same error at every entry point. Each public algorithm
    entry point calls this once on its input; the per-point primitives
    (``as_points``, ``cdist``) stay unchecked.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"points must be 2-D (n, d), got shape {a.shape}")
    if not len(a):
        raise ValueError("empty point set")
    a = as_points(a)
    # Two reductions, as fast as one isfinite pass and with no n x d
    # temporary; NaN propagates through both, and +-inf gives m = inf.
    m = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    if not math.isfinite(m):
        raise ValueError("points contain NaN or infinite coordinates")
    d = a.shape[1]
    hi = math.sqrt(np.finfo(np.float64).max / (8 * max(d, 1)))
    if m > hi or 0.0 < m < _MIN_M:
        raise ValueError(
            f"points' largest |coordinate| is {m:.3g}; at d = {d} it must "
            f"be 0 or in [{_MIN_M:.3g}, {hi:.3g}], or squared distances "
            "overflow or underflow float64"
        )
    return a


def check_kz(k: int, z: int = 0) -> None:
    """Reject k < 1 or z < 0. The entry points call this before they read
    their input, so a bad k or z fails at once instead of after a pass."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of ``a``. A row's norm does not
    depend on the other rows, bit for bit, so a slice of the norms of a
    stream equals the norms of the slice: callers may cache them."""
    return (a * a).sum(axis=1)


def _expanded(a, b, na, nb) -> np.ndarray:
    """The squared distances ``(na + nb) - 2ab`` from the rows of ``a`` to
    those of ``b`` (``na``, ``nb``: their ``sq_norms``), unclipped. The
    GEMM ``a @ b.T`` is the one ``len(a) x len(b)`` buffer; the rest runs
    in place over it, in row tiles of at most ``_TILE_ENTRIES`` entries
    with one tile-sized temporary for the norm sum. ``cdist`` and
    ``nearest`` both call this, so their squared distances are the same
    bits."""
    out = a @ b.T
    step = max(1, _TILE_ENTRIES // max(1, len(b)))
    tmp = np.empty((min(step, len(a)), len(b)))
    for lo in range(0, len(a), step):
        o = out[lo:lo + step]
        # na[i] + nb[j], as np.add.outer computes it, but from a column
        # fill and a row add: numpy's outer broadcast is ~2x slower.
        t = tmp[: len(o)]
        t[...] = na[lo:lo + step, None]
        t += nb
        o *= 2.0
        np.subtract(t, o, out=o)
    return out


def cdist(a, b) -> np.ndarray:
    """Dense Euclidean distance matrix of shape ``(len(a), len(b))``.

    Uses the expanded ``(|a|^2 + |b|^2) - 2ab`` form (one GEMM) with clipping
    to guard the tiny negative values the expansion can produce. Only one
    ``len(a) x len(b)`` buffer is allocated: the GEMM's output. The norm
    sum, the doubling and the difference run in place over it, tile by
    tile (``_expanded``), then the clip and the square root. The
    operations and their order are those of the plain expression, so the
    result is bit-for-bit the same. (Row-blocking the GEMM itself would
    not be.)

    ``cdist(T, T)`` is exactly symmetric, bit for bit: ``T`` is converted
    once, the norm sum ``na[i] + na[j]`` is symmetric, and numpy evaluates
    ``a @ a.T`` on one buffer with ``syrk`` and mirrors the triangle.
    ``common.greedy_cover`` relies on this. Two separate conversions of the
    same float32 or non-contiguous input would go through a general GEMM,
    which is not symmetric.
    """
    same = b is a
    a = as_points(a)
    b = a if same else as_points(b)
    na = sq_norms(a)
    out = _expanded(a, b, na, na if same else sq_norms(b))
    np.clip(out, 0.0, None, out=out)
    return np.sqrt(out, out=out)


@dataclass(frozen=True, eq=False)
class PairTiles:
    """The pairwise distances of a point set T, each pair stored once, as
    row tiles of the upper triangle of ``cdist(T, T)``.

    Tile t holds rows ``starts[t]:starts[t+1]`` from column ``starts[t]``
    on: a square diagonal block, then the block above the diagonal. Entry
    (i, j), i < j, is stored only in the tile of row i; in a diagonal
    block the lower half is a copy of the upper half. So the matrix the
    tiles describe is exactly symmetric by construction, and its diagonal
    is as computed. ``lo`` and ``hi`` are its smallest positive entry
    (inf if none) and its largest (0 if none).
    """

    starts: tuple[int, ...]
    tiles: tuple[np.ndarray, ...]
    lo: float
    hi: float

    def __len__(self) -> int:
        return self.starts[-1]

    def row(self, x: int) -> np.ndarray:
        """Row ``x`` of the matrix: column x of every tile above x's, then
        x's own row, from its tile's first column on."""
        t = bisect_right(self.starts, x) - 1
        if t == 0:
            return self.tiles[0][x]
        parts = [
            tile[:, x - s] for tile, s in zip(self.tiles[:t], self.starts)
        ]
        parts.append(self.tiles[t][x - self.starts[t]])
        return np.concatenate(parts)

    def values(self) -> np.ndarray:
        """The sorted distinct entries of the matrix."""
        return np.unique(np.concatenate([t.ravel() for t in self.tiles]))


def pair_tiles(T) -> PairTiles:
    """``PairTiles`` of ``T``: each tile is one ``_expanded`` GEMM of its
    rows against every row from its first on, clipped and square-rooted at
    once. The diagonal blocks' lower halves are then overwritten by their
    upper halves, and the bounds are read while the tile is fresh.

    Up to ``_DENSE_ROWS`` points make one tile, computed exactly as
    ``cdist(T, T)`` (numpy's ``syrk``, symmetric). Larger sets take about
    ``_TILES`` tiles of equal height: |T|^2 (1/2 + 1/(2 _TILES)) entries in
    all instead of |T|^2, and no |T| x |T| buffer. Each tile but the last
    (a square, ``syrk`` again) is a general GEMM, whose bits may differ
    from ``syrk``'s by a few ulps: none did on the benchmark's d = 7
    coresets, about 0.2% of the entries did on normal 2000 x 50 points.
    On integer coordinates every entry is exact, so ``row(x)`` equals
    ``cdist(T, T)[x]`` bit for bit.
    """
    T = as_points(T)
    n = len(T)
    na = sq_norms(T)
    h = max(1, n if n <= _DENSE_ROWS else -(-n // _TILES))
    starts = (*range(0, n, h), n)
    tiles, lo_d, hi_d = [], math.inf, 0.0
    for s, e in zip(starts, starts[1:]):
        t = _expanded(T[s:e], T[s:], na[s:e], na[s:])
        np.clip(t, 0.0, None, out=t)
        np.sqrt(t, out=t)
        if e < n:  # a general GEMM: mirror the diagonal block's upper half
            sq = t[:, : e - s]
            np.copyto(sq, sq.T, where=np.tri(e - s, k=-1, dtype=bool))
        hi_d = max(hi_d, float(t.max()))
        lo_d = min(lo_d, float(np.min(t, where=t > 0.0, initial=np.inf)))
        tiles.append(t)
    return PairTiles(starts, tuple(tiles), lo_d, hi_d)


def nearest(a, b, na=None, nb=None, /) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row of ``a`` to its nearest row of ``b``, and
    the index of that row: ``cdist(a, b).min(axis=1)`` and
    ``cdist(a, b).argmin(axis=1)``, bit for bit, with the same GEMM.

    The clip and the square root run per row, not per entry: both are
    monotone, so the row minimum of the distances is the root of the row
    minimum of the squared distances. Their first minima can differ,
    though, where two squared distances have one root (``_root_ties``).
    ``na`` and ``nb`` (positional only) are cached ``sq_norms`` of ``a``
    and ``b``, as the doubling coreset keeps them; they must be those bits.
    """
    a, b = as_points(a), as_points(b)
    na = sq_norms(a) if na is None else na
    nb = sq_norms(b) if nb is None else nb
    return _row_min_root(_expanded(a, b, na, nb))


def _row_min_root(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dist, idx)``: the row minima of the distances
    ``sqrt(clip(y, 0))`` for squared distances ``y``, and their first
    indices, with a clip and a square root per row rather than per entry.
    ``y`` keeps its values: one entry per row is set to inf only while the
    second smallest is read."""
    rows = np.arange(len(y))
    idx = y.argmin(axis=1)
    low = y[rows, idx]
    s = np.sqrt(np.clip(low, 0.0, None))
    # sqrt is correctly rounded, so an entry v with sqrt(clip(v)) == s has
    # v <= fl(nextafter(s, inf)^2). Only a row whose second smallest entry
    # passes that bound can hold one before idx.
    bound = np.nextafter(s, np.inf) ** 2
    y[rows, idx] = np.inf
    second = y.min(axis=1)
    y[rows, idx] = low
    near = np.flatnonzero(second <= bound)
    if len(near):
        _root_ties(y, s, idx, near)
    return np.sqrt(np.clip(y[rows, idx], 0.0, None)), idx


def _root_ties(y, s, idx, near) -> None:
    """Move ``idx[r]``, for the rows r of ``near``, to the first entry whose
    distance ``sqrt(clip(y))`` is the row minimum ``s[r]``: at or before
    ``idx[r]``, e.g. ``y = [nextafter(4, inf), 4]`` gives distances
    ``[2, 2]`` and index 0."""
    root = y[near]
    np.clip(root, 0.0, None, out=root)
    np.sqrt(root, out=root)
    idx[near] = (root == s[near, None]).argmax(axis=1)


def min_dist(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to its closest center, plus the argmin
    (the first closest), through ``nearest``.

    Chunked over points so that ``len(points) * len(centers)`` never
    materializes more than ``_CHUNK_ENTRIES`` scalars at once.

    Returns ``(dist, assign)`` with ``dist[i] = d(points[i], centers)`` and
    ``assign[i]`` the index (into ``centers``) of the closest center.
    """
    points, centers = as_points(points), as_points(centers)
    n, m = len(points), len(centers)
    dist = np.empty(n, dtype=np.float64)
    assign = np.empty(n, dtype=np.int64)
    nc = sq_norms(centers)
    step = max(1, _CHUNK_ENTRIES // max(1, m))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        dist[lo:hi], assign[lo:hi] = nearest(points[lo:hi], centers, None, nc)
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
