"""CORESETSTREAM — 1-pass streaming k-center *without* outliers.

The paper's coreset techniques applied to the no-outliers case (end of
Section 4): run the weighted doubling algorithm with a coreset budget
tau = mu*k, then run GMM on the final coreset to extract the k centers.
Space O(tau); approximation (2+eps) for tau = k*(1/eps)^D.
"""
from __future__ import annotations

from repro.core.gmm import gmm
from repro.core.metric import check_kz, finite_points
from repro.core.result import Clock, Result
from repro.streaming.doubling import DoublingCoreset


def doubling_stream(points, k: int, z: int, tau: int | None, final) -> Result:
    """The one pass both coreset streams make: the weighted doubling
    coreset with budget ``tau`` (default k+z, at least k+z) over
    ``points``, then ``final(T, w)``, which returns ``(centers, search)``
    for the final coreset T and its weights w."""
    clock = Clock()
    check_kz(k, z)
    points = finite_points(points)
    tau = k + z if tau is None else tau
    if tau < k + z:
        raise ValueError(f"tau must be >= {k + z}, got {tau}")
    coreset = DoublingCoreset(tau, points.shape[1])
    clock.lap("setup")
    coreset.process(points)
    clock.lap("pass")
    T, w, _ = coreset.finalize()
    centers, search = final(T, w)
    clock.lap("final")
    return Result(
        centers, clock.timings, coreset_size=len(T),
        coreset_weight=int(w.sum()), space=coreset.peak_size,
        n_processed=coreset.n_processed, search=search,
    )


def coreset_stream_kcenter(points, k: int, *,
                           tau: int | None = None) -> Result:
    """Run CORESETSTREAM over ``points`` (the simulated stream, in order).

    ``tau`` defaults to k; the Figure 3 sweep passes tau = mu*k for mu in
    {1, 2, 4, 8, 16}.
    """
    return doubling_stream(
        points, k, 0, tau, lambda T, w: (gmm(T, k).centers(T), None)
    )
