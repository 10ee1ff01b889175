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
the O(|T|^2) distance matrix can be computed once and passed in.

Cost per evaluation: one compare pass over the |T|^2 distance matrix to
build the boolean ball-membership matrix, one gains pass over it, and per
pick the rows of the points it covers or of those it leaves, whichever
are fewer. The ball weights ("gains") of all candidates are computed once.
Ball membership is symmetric (``dist_matrix`` must be ``cdist(T, T)``,
which is exactly symmetric, see ``repro.core.metric.cdist``), so the balls
containing a point y are the entries of row y, and the weight of a set of
points Y inside every ball is ``w[Y] @ in_ball[Y]``, read by contiguous
rows rather than strided columns. After a pick, that weight of the newly
covered points is subtracted from the gains, or, when the pick covers more
points than it leaves uncovered, the gains are recomputed as that weight
of the uncovered points. A pick reads at most the rows it newly covers,
and each row is newly covered once, so the updates add up to at most one
more pass; a first pick that covers most of T reads only the rows it
leaves. No update follows the k-th pick: nothing reads those gains. The
products run in
blocks of ``_BLOCK_ENTRIES`` so no |T|^2-sized float temporary is
allocated.

This returns exactly what recomputing the gains from scratch at every pick
returns, because every caller passes integer weights (proxy counts, or
ones). Every gain, partial sum and difference is then an integer between 0
and the total weight, and is exact in any summation order as long as the
total is representable: up to 2^24 in float32, 2^53 in float64. The gains
and the cast ball blocks are therefore float32 when the total weight is at
most 2^24 (half the memory traffic of float64) and float64 above; either
way they are bit-for-bit the exact integers, and so is ``argmax``'s
tie-breaking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import as_points, cdist

# Entries of the boolean ball matrix cast to the gains' dtype per
# matrix-vector block (1 MB in float32, 2 MB in float64): small enough to
# stay in cache, large enough to amortize the call.
_BLOCK_ENTRIES = 1 << 18

# Largest total weight whose integer partial sums float32 holds exactly.
_FLOAT32_EXACT = 1 << 24


def _ball_weight(wv, in_ball, rows, step) -> np.ndarray:
    """``wv[rows] @ in_ball[rows]``: the weight of the points ``rows``
    inside every ball (row y of the symmetric ``in_ball`` marks the balls
    that contain y), summed over blocks of ``step`` rows."""
    total = np.zeros(in_ball.shape[1], dtype=wv.dtype)
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step]
        total += wv[r] @ in_ball[r]
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
    dist_matrix: np.ndarray | None = None,
) -> OutliersClusterResult:
    """Run OutliersCluster(T, k, r, eps_hat) and return centers + uncovered.

    ``weights`` are the proxy weights w_t >= 1 attached to each point of T
    (integers, for the exactness argument in the module docstring).
    ``dist_matrix`` (optional) is the precomputed |T| x |T| distance matrix
    and must be ``cdist(T, T)``: the gain update relies on its exact
    symmetry. When absent it is computed here.
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
    D = cdist(T, T) if dist_matrix is None else dist_matrix
    if D.shape != (n, n):
        raise ValueError(f"dist_matrix shape {D.shape} != ({n}, {n})")

    ball_r = (1.0 + 2.0 * eps_hat) * r
    cover_r = (3.0 + 4.0 * eps_hat) * r
    uncovered = np.ones(n, dtype=bool)
    # The candidate balls do not depend on what is covered, so the boolean
    # ball-membership matrix is hoisted out of the selection loop.
    in_ball = D <= ball_r
    # Aggregate uncovered weight inside each candidate's small ball.
    # Candidates are *all* points of T ("x needs not be uncovered").
    wv = w.astype(_gains_dtype(w))
    step = max(1, _BLOCK_ENTRIES // max(1, n))
    gains = np.empty(n, dtype=wv.dtype)
    for lo in range(0, n, step):
        gains[lo:lo + step] = in_ball[lo:lo + step] @ wv
    centers: list[int] = []
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
            gains -= _ball_weight(wv, in_ball, newly, step)
        else:
            gains = _ball_weight(wv, in_ball, rest, step)
    return OutliersClusterResult(
        centers_idx=np.asarray(centers, dtype=np.int64),
        uncovered=uncovered,
        uncovered_weight=float(w[uncovered].sum()),
    )
