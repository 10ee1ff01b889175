"""CORESETOUTLIERS — the paper's 1-pass streaming algorithm for k-center
with z outliers (Section 4, Theorem 3).

One pass of the weighted doubling algorithm with coreset budget
tau = mu*(k+z) (theory: tau = (k+z)(16/eps_hat)^D), then the same second
stage as the MapReduce algorithm: OutliersCluster on the weighted coreset
under the minimum-feasible-radius search.
"""
from __future__ import annotations

from repro.core.result import Result
from repro.core.search import min_feasible_radius
from repro.streaming.coreset_stream import doubling_stream


def coreset_stream_outliers(
    points,
    k: int,
    z: int,
    *,
    tau: int | None = None,
    eps_hat: float = 0.05,
) -> Result:
    """Run CORESETOUTLIERS over ``points`` (the simulated stream).

    ``tau`` defaults to k+z; Figure 5 passes tau = mu*(k+z) for mu in
    {1, 2, 4, 8, 16}. ``eps_hat`` parameterizes OutliersCluster and the
    radius-search tolerance, exactly as in the MapReduce second round.
    """
    def final(T, w):
        search = min_feasible_radius(T, w, k, z, eps_hat)
        return search.centers(T), search

    return doubling_stream(points, k, z, tau, final)
