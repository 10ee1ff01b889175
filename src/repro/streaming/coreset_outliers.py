"""CORESETOUTLIERS — the paper's 1-pass streaming algorithm for k-center
with z outliers (Section 4, Theorem 3).

One pass of the weighted doubling algorithm with coreset budget
tau = mu*(k+z) (theory: tau = (k+z)(16/eps_hat)^D), then the same second
stage as the MapReduce algorithm: OutliersCluster on the weighted coreset
under the minimum-feasible-radius search.
"""
from __future__ import annotations

import time

from repro.core.metric import check_kz, finite_points
from repro.core.search import min_feasible_radius
from repro.streaming.common import StreamResult
from repro.streaming.doubling import DoublingCoreset


def coreset_stream_outliers(
    points,
    k: int,
    z: int,
    *,
    tau: int | None = None,
    eps_hat: float = 0.05,
) -> StreamResult:
    """Run CORESETOUTLIERS over ``points`` (the simulated stream).

    ``tau`` defaults to k+z; Figure 5 passes tau = mu*(k+z) for mu in
    {1, 2, 4, 8, 16}. ``eps_hat`` parameterizes OutliersCluster and the
    radius-search tolerance, exactly as in the MapReduce second round.
    """
    check_kz(k, z)
    points = finite_points(points)
    tau = k + z if tau is None else tau
    if tau < k + z:
        raise ValueError(f"tau must be >= k+z, got tau={tau}, k+z={k + z}")
    coreset = DoublingCoreset(tau, points.shape[1])
    t0 = time.perf_counter()
    coreset.process(points)
    t1 = time.perf_counter()
    T, w, _ = coreset.finalize()
    search = min_feasible_radius(T, w, k, z, eps_hat)
    centers = search.centers(T)
    t2 = time.perf_counter()
    return StreamResult.timed(
        centers, coreset.peak_size, coreset.n_processed, t0, t1, t2
    )
