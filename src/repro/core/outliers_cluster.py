"""Algorithm 1 of the paper: OutliersCluster(T, k, r, eps_hat).

A weighted variant of the greedy of Charikar et al. [16] (as adapted by
Malkomes et al. [26]): given a *weighted* point set T, repeatedly pick the
point x whose ball of radius (1 + 2*eps_hat)*r contains the largest
aggregate weight of still-uncovered points, then mark every uncovered point
within (3 + 4*eps_hat)*r of x as covered. Stops after k centers or when
everything is covered.

With ``eps_hat = 0`` and unit weights this is exactly the sequential
algorithm of [16], which is how the CHARIKARETAL baseline (Figure 8 / T7)
reuses this module.

Since the same T is probed at many radii during the minimum-radius search,
its pairwise distances are computed once, as ``metric.PairTiles`` (row
tiles of the upper triangle, each pair stored once), and passed in.

Cost per evaluation: one compare pass over the tiles to build the boolean
ball tiles (about |T|^2/2 entries), one gains pass over them, and per pick
the rows of the points it covers or of those it leaves, whichever are
fewer. Ball membership is symmetric by construction of the tiles, so the
balls containing a point y are the entries of row y, which is y's row in
its own tile plus column y of the tiles above it. The weight of a set of
points Y inside every ball is therefore, per tile, ``w[Y] @ ball[Y]`` over
its rows in Y (the upper part, U.w) plus ``ball[:, Y] @ w[Y]`` over its
upper block's columns in Y (the mirrored part, U^T.w); the gains pass is
the same with Y = T, reading each tile once for both parts. After a pick,
that weight of the newly covered points is subtracted from the gains, or,
when the pick covers more points than it leaves uncovered, the gains are
recomputed as that weight of the uncovered points. A pick reads at most
the rows it newly covers, and each row is newly covered once, so the
updates add up to at most one more pass; a first pick that covers most
of T reads only the rows it leaves. No update follows the k-th pick:
nothing reads those gains. The cover test reads x's gathered row. The
products run in blocks of ``_BLOCK_ENTRIES`` so no |T|^2-sized float
temporary is allocated. A set small enough to be one dense tile (the
stream's final searches) has no column part: this is then the dense
kernel over the whole ``cdist(T, T)``.

This returns exactly what recomputing the gains from scratch at every pick
returns, because every caller passes integer weights (proxy counts, or
ones). Every gain, partial sum and difference is then an integer between 0
and the total weight, and is exact in any summation order as long as the
total is representable: up to 2^24 in float32, 2^53 in float64. The gains
and the cast ball blocks are therefore float32 when the total weight is at
most 2^24 (half the memory traffic of float64) and float64 above; either
way they are bit-for-bit the exact integers, and so is ``argmax``'s
tie-breaking. The same exactness makes the tiled sums equal the dense
kernel's whenever the distances are the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import PairTiles, as_points, pair_tiles

# Entries of the boolean ball tiles cast to the gains' dtype per
# matrix-vector block (1 MB in float32, 2 MB in float64): small enough to
# stay in cache, large enough to amortize the call.
_BLOCK_ENTRIES = 1 << 18

# Largest total weight whose integer partial sums float32 holds exactly.
_FLOAT32_EXACT = 1 << 24


def _step(width: int) -> int:
    """Rows (or columns) of ``width`` entries per cast block."""
    return max(1, _BLOCK_ENTRIES // max(1, width))


def _cast(block: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``block`` cast to the gains' dtype in the front of ``buf``, which
    every block of an evaluation reuses: a fresh array per block would
    cost its page faults, and matmul's own cast of a bool operand is
    slower still."""
    f = buf[: block.size].reshape(block.shape)
    np.copyto(f, block)
    return f


def _gains(wv, balls, starts, buf) -> np.ndarray:
    """The weight ``wv`` inside every ball: each tile's rows against the
    weights of its columns (U.w), and its upper block's columns against
    the weights of its rows (U^T.w), from one cast block at a time."""
    n = len(wv)
    gains = np.zeros(n, dtype=wv.dtype)
    for B, s, e in zip(balls, starts, starts[1:]):
        step = _step(B.shape[1])
        for a in range(s, e, step):
            f = _cast(B[a - s:a - s + step], buf)
            gains[a:a + len(f)] += f @ wv[s:]
            if e < n:
                gains[e:] += wv[a:a + len(f)] @ f[:, e - s:]
    return gains


def _ball_weight(wv, balls, starts, idx, buf) -> np.ndarray:
    """``wv[idx] @ M[idx]`` for the symmetric ball matrix M the tiles
    describe: the weight of the points ``idx`` (sorted) inside every ball.
    Row y of M is y's row in its tile and column y of the tiles above, so
    each tile adds its rows in ``idx`` (contiguous row reads) and its
    upper block's columns in ``idx`` (a gather over its few rows); a
    one-tile set has no columns to gather."""
    total = np.zeros(len(wv), dtype=wv.dtype)
    if len(balls) == 1:
        cut = (0, len(idx))
    else:  # idx[cut[t]:cut[t+1]] are the rows of tile t
        cut = np.searchsorted(idx, starts).tolist()
    for B, s, e, i, j in zip(balls, starts, starts[1:], cut, cut[1:]):
        rows, cols = _step(B.shape[1]), _step(e - s)
        for a in range(i, j, rows):
            r = idx[a:min(j, a + rows)]
            total[s:] += wv[r] @ _cast(B[r - s], buf)
        for a in range(j, len(idx), cols):
            c = idx[a:a + cols]
            total[s:e] += _cast(np.take(B, c - s, axis=1), buf) @ wv[c]
    return total


def _gains_dtype(w: np.ndarray) -> type:
    """float32 when every integer sum of ``w`` is exact in it, else
    float64 (see the module docstring)."""
    return np.float32 if w.sum() <= _FLOAT32_EXACT else np.float64


@dataclass(frozen=True)
class OutliersClusterResult:
    """``centers_idx``: indices into T of the <= k selected centers.
    ``uncovered``: boolean mask over T — the returned set T' of points at
    distance > (3+4*eps_hat)*r from every center.
    ``uncovered_weight``: total weight of T' (the quantity compared to z).
    """

    centers_idx: np.ndarray
    uncovered: np.ndarray
    uncovered_weight: float

    @property
    def n_centers(self) -> int:
        return len(self.centers_idx)


def outliers_cluster(
    T,
    weights,
    k: int,
    r: float,
    eps_hat: float,
    *,
    pairs: PairTiles | None = None,
) -> OutliersClusterResult:
    """Run OutliersCluster(T, k, r, eps_hat) and return centers + uncovered.

    ``weights`` are the proxy weights w_t >= 1 attached to each point of T
    (integers, for the exactness argument in the module docstring).
    ``pairs`` (optional) is ``metric.pair_tiles(T)``, shared by the
    search's evaluations; when absent it is computed here.
    """
    T = as_points(T)
    w = np.asarray(weights, dtype=np.float64)
    n = len(T)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} != ({n},)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    P = pair_tiles(T) if pairs is None else pairs
    if len(P) != n:
        raise ValueError(f"pairs cover {len(P)} points, T has {n}")

    ball_r = (1.0 + 2.0 * eps_hat) * r
    cover_r = (3.0 + 4.0 * eps_hat) * r
    uncovered = np.ones(n, dtype=bool)
    # The candidate balls do not depend on what is covered, so the boolean
    # ball tiles are hoisted out of the selection loop.
    balls = [t <= ball_r for t in P.tiles]
    # Aggregate uncovered weight inside each candidate's small ball.
    # Candidates are *all* points of T ("x needs not be uncovered").
    wv = w.astype(_gains_dtype(w))
    starts = P.starts
    # A cast block holds at most _BLOCK_ENTRIES entries, or one row.
    buf = np.empty(max(_BLOCK_ENTRIES, n), dtype=wv.dtype)
    gains = _gains(wv, balls, starts, buf)
    centers: list[int] = []
    while len(centers) < k and uncovered.any():
        x = int(gains.argmax())
        centers.append(x)
        keep = P.row(x) > cover_r
        newly = np.flatnonzero(uncovered & ~keep)
        uncovered &= keep
        rest = np.flatnonzero(uncovered)
        if len(centers) == k or not len(rest):
            break
        if len(newly) <= len(rest):
            gains -= _ball_weight(wv, balls, starts, newly, buf)
        else:
            gains = _ball_weight(wv, balls, starts, rest, buf)
    return OutliersClusterResult(
        centers_idx=np.asarray(centers, dtype=np.int64),
        uncovered=uncovered,
        uncovered_weight=float(w[uncovered].sum()),
    )
