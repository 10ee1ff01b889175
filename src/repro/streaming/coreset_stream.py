"""CORESETSTREAM — 1-pass streaming k-center *without* outliers.

The paper's coreset techniques applied to the no-outliers case (end of
Section 4): run the weighted doubling algorithm with a coreset budget
tau = mu*k, then run GMM on the final coreset to extract the k centers.
Space O(tau); approximation (2+eps) for tau = k*(1/eps)^D.
"""
from __future__ import annotations

import time

from repro.core.gmm import gmm
from repro.core.metric import check_kz, finite_points
from repro.streaming.common import StreamResult
from repro.streaming.doubling import DoublingCoreset


def coreset_stream_kcenter(points, k: int, *,
                           tau: int | None = None) -> StreamResult:
    """Run CORESETSTREAM over ``points`` (the simulated stream, in order).

    ``tau`` defaults to k; the Figure 3 sweep passes tau = mu*k for mu in
    {1, 2, 4, 8, 16}.
    """
    check_kz(k)
    points = finite_points(points)
    tau = k if tau is None else tau
    if tau < k:
        raise ValueError(f"tau must be >= k, got tau={tau}, k={k}")
    coreset = DoublingCoreset(tau, points.shape[1])
    t0 = time.perf_counter()
    coreset.process(points)
    t1 = time.perf_counter()
    T, _, _ = coreset.finalize()
    final = gmm(T, k)
    centers = final.centers(T)
    t2 = time.perf_counter()
    return StreamResult.timed(
        centers, coreset.peak_size, coreset.n_processed, t0, t1, t2
    )
