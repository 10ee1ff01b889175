"""Minimum-feasible-radius searches and the CHARIKARETAL baseline.

The second round of the outliers MapReduce algorithm (and the final step of
the outliers Streaming algorithm) must find the smallest radius r such that
OutliersCluster(T, k, r, eps_hat) leaves uncovered weight <= z. The paper
performs a binary search over the O(|T|^2) pairwise distances *combined with
a geometric search of step (1 + delta)*, delta = eps_hat / (3 + 4*eps_hat),
and avoids storing all distances via a streaming median-finder [30].

``min_feasible_radius`` implements the same tolerance without materializing
the O(|T|^2) candidates: it binary-searches a geometric (1+delta) grid
spanning [min positive pairwise distance, diameter upper bound]. Because the
feasibility predicate is not formally monotone in r, the result of the
binary search is safeguarded by walking the grid upward until feasibility
holds (the returned radius keeps the (1+delta) tolerance guarantee used in
Theorem 2's proof).

``min_feasible_radius_exact`` searches the actual sorted pairwise distances
(for modest |T|) — with ``eps_hat = 0`` and unit weights this is the
sequential algorithm of Charikar et al. [16], exposed as ``charikar``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.metric import as_points, cdist, finite_points
from repro.core.outliers_cluster import OutliersClusterResult, outliers_cluster


@dataclass(frozen=True)
class RadiusSearchResult:
    """``r``: the radius returned by the search (feasible by construction).
    ``cluster``: the OutliersCluster output at radius ``r``.
    ``trace``: one ``(r, uncovered_weight, n_centers)`` per OutliersCluster
    evaluation, in probe order.
    """

    r: float
    cluster: OutliersClusterResult
    trace: tuple[tuple[float, float, int], ...]

    @property
    def evaluations(self) -> int:
        """Number of OutliersCluster runs performed (reported by the
        sequential-experiment harness; each costs about two passes over
        the |T|^2 matrix, see ``outliers_cluster``)."""
        return len(self.trace)

    def centers(self, T) -> np.ndarray:
        return as_points(T)[self.cluster.centers_idx]


def default_delta(eps_hat: float) -> float:
    """The paper's search tolerance: delta = eps_hat / (3 + 4*eps_hat)."""
    return eps_hat / (3.0 + 4.0 * eps_hat) if eps_hat > 0 else 0.0


def _feasible(res: OutliersClusterResult, z: float) -> bool:
    return res.uncovered_weight <= z


def _prober(T, w, k: int, eps_hat: float, D):
    """Return ``(run, trace)``: ``run(r)`` is OutliersCluster on T at radius
    r over the shared matrix ``D``, and appends each evaluation to the
    ``trace`` list."""
    trace: list = []

    def run(r: float) -> OutliersClusterResult:
        res = outliers_cluster(T, w, k, r, eps_hat, dist_matrix=D)
        trace.append((r, res.uncovered_weight, res.n_centers))
        return res

    return run, trace


def min_feasible_radius(
    T,
    weights,
    k: int,
    z: float,
    eps_hat: float,
    *,
    delta: float | None = None,
) -> RadiusSearchResult:
    """Binary search over a geometric (1+delta) grid for the smallest grid
    radius at which OutliersCluster leaves uncovered weight <= z.

    The |T| x |T| distance matrix is computed once and shared across all
    OutliersCluster evaluations.
    """
    T = as_points(T)
    w = np.asarray(weights, dtype=np.float64)
    if delta is None:
        delta = default_delta(eps_hat)
    if delta <= 0:
        # eps_hat = 0 callers must pick an explicit tolerance or use the
        # exact-candidate search below.
        raise ValueError("delta must be positive; use min_feasible_radius_exact")
    D = cdist(T, T)
    run, trace = _prober(T, w, k, eps_hat, D)

    # r = 0 covers only coincident points; if that is already feasible
    # (e.g. z >= total weight, or <= k distinct locations) we are done.
    res0 = run(0.0)
    if _feasible(res0, z):
        return RadiusSearchResult(0.0, res0, tuple(trace))

    lo_d = float(np.min(D, where=D > 0.0, initial=np.inf))
    if lo_d == np.inf:
        # All points coincide yet r=0 was infeasible: cannot happen, since a
        # single center would cover everything — guard anyway.
        return RadiusSearchResult(0.0, res0, tuple(trace))
    hi_d = float(D.max())

    # Geometric grid lo_d * (1+delta)^j covering [lo_d, hi_d].
    n_steps = max(1, math.ceil(math.log(hi_d / lo_d) / math.log1p(delta)))

    def grid(j: int) -> float:
        return lo_d * (1.0 + delta) ** j

    # hi_d is always feasible: one ball of radius (1+2eps)*diam covers T.
    lo_j, hi_j = 0, n_steps
    best_j, best_res = None, None
    res = run(grid(lo_j))
    if _feasible(res, z):
        best_j, best_res = lo_j, res
    else:
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            res = run(grid(mid))
            if _feasible(res, z):
                hi_j, best_j, best_res = mid, mid, res
            else:
                lo_j = mid
        if best_j is None:
            best_j, best_res = hi_j, run(grid(hi_j))
    # Feasibility is monotone for the instances the guarantee covers, but is
    # not formally monotone in general: safeguard by walking upward.
    while not _feasible(best_res, z):
        best_j += 1
        best_res = run(grid(best_j))
    return RadiusSearchResult(grid(best_j), best_res, tuple(trace))


def min_feasible_radius_exact(
    T,
    weights,
    k: int,
    z: float,
    eps_hat: float = 0.0,
) -> RadiusSearchResult:
    """Binary search over the *actual* sorted pairwise distances of T.

    Materializes the O(|T|^2) distances, so only for modest |T| (the
    sequential baseline's input, or tests). Returns the smallest candidate
    distance that is feasible (with the same walk-up safeguard).
    """
    T = as_points(T)
    w = np.asarray(weights, dtype=np.float64)
    D = cdist(T, T)
    run, trace = _prober(T, w, k, eps_hat, D)

    cand = np.unique(D)  # sorted, includes 0
    lo, hi = 0, len(cand) - 1
    res = run(float(cand[lo]))
    if _feasible(res, z):
        return RadiusSearchResult(float(cand[lo]), res, tuple(trace))
    best_i, best_res = None, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = run(float(cand[mid]))
        if _feasible(res, z):
            hi, best_i, best_res = mid, mid, res
        else:
            lo = mid
    if best_i is None:
        best_i, best_res = hi, run(float(cand[hi]))
    while not _feasible(best_res, z):
        best_i += 1
        best_res = run(float(cand[best_i]))
    return RadiusSearchResult(float(cand[best_i]), best_res, tuple(trace))


def charikar(points, k: int, z: int) -> RadiusSearchResult:
    """CHARIKARETAL [16]: the sequential 3-approximation for k-center with
    z outliers — OutliersCluster with eps_hat = 0 and unit weights over the
    whole input, binary-searched over all pairwise distances.
    """
    points = finite_points(points)
    return min_feasible_radius_exact(
        points, np.ones(len(points)), k, z, eps_hat=0.0
    )
