"""The 2-pass, D-oblivious streaming algorithm (Section 4, final remark).

Pass 1 runs the (unweighted) doubling algorithm for the (k+z)-center
problem, yielding r_hat <= 8 * r*_{k+z}(S) <= 8 * r*_{k,z}(S) — here,
8 * phi for the final phi of ``DoublingCoreset`` with tau = k+z.

Pass 2 builds a maximal weighted coreset T of points with mutual distances
> (eps/48) * r_hat: each stream point within that threshold of T is
assigned to its nearest proxy (weight + 1), otherwise it joins T. Every
point ends within eps_hat * r*_{k,z} of its proxy (eps_hat = eps/6), so
running the weighted [16] search on T gives a (3+eps)-approximation with
|T| <= (k+z) * (96/eps)^D — without ever knowing D.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.metric import check_kz, finite_points
from repro.core.search import min_feasible_radius
from repro.streaming import common
from repro.streaming.common import StreamResult
from repro.streaming.doubling import DoublingCoreset


def maximal_coreset(
    points: np.ndarray, thresh: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pass 2: read ``points`` in order; a point within ``thresh`` of T adds
    1 to its nearest proxy's weight, any other point joins T with weight 1.

    Returns ``(T, w)``, T's points pairwise > ``thresh`` apart and w their
    proxy counts (float64, for the search). ``common.scan`` reads the
    stream against T; T lives in arrays that double in capacity when it
    fills them.
    """
    n = len(points)
    T = np.empty((min(n, common.BLOCK_ROWS), points.shape[1]))
    w = np.zeros(len(T), dtype=np.int64)
    m, i = 0, 0
    while i < n:
        i, counts = common.scan(points, i, T[:m], thresh)
        w[:m] += counts
        if i == n:
            break
        if m == len(T):
            T, w = np.resize(T, (2 * m, T.shape[1])), np.resize(w, 2 * m)
        T[m], w[m] = points[i], 1
        m += 1
        i += 1
    return T[:m].copy(), w[:m].astype(np.float64)


def two_pass_outliers(
    points, k: int, z: int, *, eps: float = 0.6
) -> StreamResult:
    """Run the 2-pass algorithm over ``points`` (streamed twice, in order).

    ``eps`` is the overall precision (the algorithm uses eps_hat = eps/6
    internally, as in Theorem 3).
    """
    check_kz(k, z)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    points = finite_points(points)
    n, d = points.shape
    eps_hat = eps / 6.0
    t0 = time.perf_counter()

    # Pass 1: doubling algorithm for (k+z)-center -> r_hat = 8*phi.
    first = DoublingCoreset(k + z, d).process(points)
    _, _, phi = first.finalize()
    r_hat = 8.0 * phi

    # Pass 2: maximal coreset at separation threshold (eps/48) * r_hat.
    Ta, wa = maximal_coreset(points, (eps / 48.0) * r_hat)
    t1 = time.perf_counter()

    search = min_feasible_radius(Ta, wa, k, z, eps_hat)
    centers = search.centers(Ta)
    t2 = time.perf_counter()
    return StreamResult.timed(
        centers, max(first.peak_size, len(Ta)), 2 * n, t0, t1, t2
    )
