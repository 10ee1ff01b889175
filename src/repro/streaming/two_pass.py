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

from repro.core.metric import cdist, finite_points
from repro.core.search import min_feasible_radius
from repro.streaming.common import StreamResult
from repro.streaming.doubling import DoublingCoreset


def two_pass_outliers(
    points, k: int, z: int, *, eps: float = 0.6
) -> StreamResult:
    """Run the 2-pass algorithm over ``points`` (streamed twice, in order).

    ``eps`` is the overall precision (the algorithm uses eps_hat = eps/6
    internally, as in Theorem 3).
    """
    points = finite_points(points)
    n, d = points.shape
    eps_hat = eps / 6.0
    t0 = time.perf_counter()

    # Pass 1: doubling algorithm for (k+z)-center -> r_hat = 8*phi.
    first = DoublingCoreset(k + z, d).process(points)
    _, _, phi = first.finalize()
    r_hat = 8.0 * phi

    # Pass 2: maximal coreset at separation threshold (eps/48) * r_hat.
    thresh = (eps / 48.0) * r_hat
    T: list[np.ndarray] = [points[0]]
    w: list[int] = [1]
    for i in range(1, n):
        p = points[i]
        dist = cdist(p[None, :], np.asarray(T))[0]
        j = int(dist.argmin())
        if dist[j] <= thresh:
            w[j] += 1
        else:
            T.append(p)
            w.append(1)
    t1 = time.perf_counter()

    Ta = np.asarray(T)
    wa = np.asarray(w, dtype=np.float64)
    search = min_feasible_radius(Ta, wa, k, z, eps_hat)
    centers = search.centers(Ta)
    t2 = time.perf_counter()
    return StreamResult.timed(
        centers, max(first.peak_size, len(Ta)), 2 * n, t0, t1, t2
    )
