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

Cost per evaluation: one pass over the |T|^2 matrix plus the columns of the
points each pick covers, not one pass per pick. The ball-membership matrix
is built once; the ball weights ("gains") of all candidates are computed
once, and after each pick the weight of the newly covered points is
subtracted from the gains of the balls that contain them. Over the k picks
every column is subtracted at most once, so the updates add up to at most
one more pass. Both matrix-vector products run in blocks of
``_BLOCK_ENTRIES`` so no |T|^2-sized float temporary is allocated.

This returns exactly what recomputing the gains from scratch at every pick
returns, because every caller passes integer weights (proxy counts, or
ones): float64 sums of integers below 2^53 are exact in any order, so the
gains, and hence ``argmax``'s tie-breaking, are bit-for-bit the same.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import as_points, cdist

# Entries of the boolean ball matrix cast to float64 per matrix-vector block
# (2 MB): small enough to stay in cache, large enough to amortize the call.
_BLOCK_ENTRIES = 1 << 18


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
    ``dist_matrix`` (optional) is the precomputed |T| x |T| distance matrix;
    when absent it is computed here.
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
    step = max(1, _BLOCK_ENTRIES // max(1, n))
    gains = np.empty(n)
    for lo in range(0, n, step):
        gains[lo:lo + step] = in_ball[lo:lo + step] @ w
    centers: list[int] = []
    while len(centers) < k and uncovered.any():
        x = int(gains.argmax())
        centers.append(x)
        keep = D[x] > cover_r
        newly = np.flatnonzero(uncovered & ~keep)
        uncovered &= keep
        for lo in range(0, len(newly), step):
            cols = newly[lo:lo + step]
            gains -= in_ball[:, cols] @ w[cols]
    return OutliersClusterResult(
        centers_idx=np.asarray(centers, dtype=np.int64),
        uncovered=uncovered,
        uncovered_weight=float(w[uncovered].sum()),
    )
