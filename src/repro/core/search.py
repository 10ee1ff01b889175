"""The minimum-feasible-radius search and the CHARIKARETAL baseline.

The second round of the outliers MapReduce algorithm (and the final step of
the outliers Streaming algorithm) must find the smallest radius r such that
OutliersCluster(T, k, r, eps_hat) leaves uncovered weight <= z. The paper
performs a binary search over the O(|T|^2) pairwise distances *combined with
a geometric search of step (1 + delta)*, delta = eps_hat / (3 + 4*eps_hat),
and avoids storing all distances via a streaming median-finder [30].

One routine, ``_search``, does both: it probes r = 0, then bisects one
sorted array of candidate radii. Unlike the paper it stores the distances,
as one |T| x |T| float64 matrix ``cdist(T, T)``; each evaluation adds its
|T| x |T| bool ball matrix, so a search peaks near 9|T|^2 bytes.
``min_feasible_radius`` searches the geometric grid
``lo_d * (1+delta)**j`` from the min positive pairwise distance up to the
max, so the O(|T|^2) distances are never sorted.
``min_feasible_radius_exact`` (delta = 0) searches the sorted distinct
pairwise distances, for modest |T|; with ``eps_hat = 0`` and unit weights
this is the sequential algorithm of Charikar et al. [16], exposed as
``charikar``.

Feasibility is not monotone in r, so no logarithmic search is guaranteed to
return the smallest feasible r. The bisection guarantees a bracket: the
answer is r = 0, the first positive candidate, or the candidate right
after the largest infeasible probe r_lo. On the grid that gives
r <= (1+delta) * r_lo; over the distances, no pairwise distance lies
strictly between r_lo and r. Lemma 5 (feasible at every r >= r*) puts
r_lo below r*, which gives Theorem 2's r < (1+delta) * r*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.metric import as_points, cdist, check_kz, finite_points
from repro.core.outliers_cluster import OutliersClusterResult, outliers_cluster
from repro.core.result import Clock, Result


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


def _candidates(D: np.ndarray, delta: float) -> np.ndarray:
    """The sorted candidate radii: the distinct entries of D for
    ``delta = 0``, else the grid lo_d * (1+delta)**j, j = 0..n_steps, from
    the min positive pairwise distance lo_d up to at least max(D)."""
    if delta == 0.0:
        return np.unique(D)
    # Only called after r = 0 was infeasible, so some entry of D is > 0.
    lo_d = float(np.min(D, where=D > 0.0, initial=np.inf))
    hi_d = float(D.max())
    n_steps = max(1, math.ceil(math.log(hi_d / lo_d) / math.log1p(delta)))
    return np.array([lo_d * (1.0 + delta) ** j for j in range(n_steps + 1)])


def _search(T, weights, k, z, eps_hat, delta) -> RadiusSearchResult:
    """Probe r = 0, then bisect the sorted ``_candidates(D, delta)`` over
    the shared matrix D = cdist(T, T) for a feasible radius.

    The last candidate is at least max(D)/3, so the first center covers T
    (its cover radius is at least 3r) and that probe is always feasible:
    it runs only if no midpoint was feasible. The arguments are checked
    before the matrix is built.
    """
    check_kz(k, z)
    T = as_points(T)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(T),):
        raise ValueError(f"weights shape {w.shape} != ({len(T)},)")
    D = cdist(T, T)
    trace: list = []

    def run(r: float) -> OutliersClusterResult:
        res = outliers_cluster(T, w, k, r, eps_hat, dist_matrix=D)
        trace.append((r, res.uncovered_weight, res.n_centers))
        return res

    def found(r: float, res: OutliersClusterResult) -> RadiusSearchResult:
        return RadiusSearchResult(r, res, tuple(trace))

    # r = 0 covers only coincident points; if that is already feasible
    # (e.g. z >= total weight, or <= k distinct locations) we are done.
    res = run(0.0)
    if res.uncovered_weight <= z:
        return found(0.0, res)
    cand = _candidates(D, delta)
    if cand[0] != 0.0:
        res = run(float(cand[0]))
        if res.uncovered_weight <= z:
            return found(float(cand[0]), res)
    lo, hi, best = 0, len(cand) - 1, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = run(float(cand[mid]))
        if res.uncovered_weight <= z:
            hi, best = mid, res
        else:
            lo = mid
    if best is None:
        best = run(float(cand[hi]))
    return found(float(cand[hi]), best)


def min_feasible_radius(
    T,
    weights,
    k: int,
    z: float,
    eps_hat: float,
    *,
    delta: float | None = None,
) -> RadiusSearchResult:
    """The search over the geometric (1+delta) grid (``delta`` defaults to
    the paper's ``default_delta(eps_hat)``)."""
    if delta is None:
        delta = default_delta(eps_hat)
    if delta <= 0:
        # eps_hat = 0 callers must pick an explicit tolerance or use the
        # exact-candidate search below.
        raise ValueError("delta must be positive; use min_feasible_radius_exact")
    return _search(T, weights, k, z, eps_hat, delta)


def min_feasible_radius_exact(
    T,
    weights,
    k: int,
    z: float,
    eps_hat: float = 0.0,
) -> RadiusSearchResult:
    """The search over the sorted distinct pairwise distances of T; only
    for modest |T| (the sequential baseline's input, or tests)."""
    return _search(T, weights, k, z, eps_hat, 0.0)


def charikar(points, k: int, z: int) -> Result:
    """CHARIKARETAL [16]: the sequential 3-approximation for k-center with
    z outliers — OutliersCluster with eps_hat = 0 and unit weights over the
    whole input, binary-searched over all pairwise distances.
    """
    clock = Clock()
    points = finite_points(points)
    clock.lap("setup")
    search = min_feasible_radius_exact(
        points, np.ones(len(points)), k, z, eps_hat=0.0
    )
    centers = search.centers(points)
    clock.lap("search")
    return Result(centers, clock.timings, search=search)
