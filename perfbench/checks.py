"""Correctness checks on every call, written without the code under test.

Distances here are computed from coordinate differences, not with the
program's expanded |a|^2 + |b|^2 - 2ab form, so an error in the program's
geometry cannot cancel out in its own check.
"""
from __future__ import annotations

import numpy as np

_CHUNK_ROWS = 1_024  # keeps the check out of the driver's peak RSS
RADIUS_RTOL = 1e-9


def closest_dist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Distance from each row of X to its closest row of C, chunked."""
    out = np.empty(len(X))
    for lo in range(0, len(X), _CHUNK_ROWS):
        diff = X[lo:lo + _CHUNK_ROWS, None, :] - C[None, :, :]
        out[lo:lo + _CHUNK_ROWS] = np.sqrt((diff * diff).sum(axis=2)).min(
            axis=1
        )
    return out


def zradius(X: np.ndarray, C: np.ndarray, z: int) -> float:
    """r_{X,Z}(C): the (z+1)-th largest closest-center distance."""
    d = closest_dist(X, C)
    if z >= len(d):
        return 0.0
    return float(np.sort(d)[len(d) - 1 - z])


def _is_row(X: np.ndarray, c: np.ndarray) -> bool:
    return bool((X == c).all(axis=1).any())


def check_call(
    X: np.ndarray,
    centers: np.ndarray,
    reported_radius: float | None,
    searches: list[dict],
    *,
    k: int,
    z: int,
) -> tuple[float, list[str]]:
    """Verify one call's answer. Returns ``(radius, failures)``, where the
    radius is the benchmark's own recomputation over the full input and
    ``failures`` lists every check that did not hold."""
    fails: list[str] = []
    n = len(X)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or not 1 <= len(centers) <= k:
        fails.append(f"expected 1..{k} centers, got shape {centers.shape}")
        return float("nan"), fails
    if not all(_is_row(X, c) for c in centers):
        fails.append("a center is not a row of the input")
    radius = zradius(X, centers, z)
    if reported_radius is not None and not (
        abs(reported_radius - radius) <= RADIUS_RTOL * max(abs(radius), 1e-300)
    ):
        fails.append(
            f"reported radius {reported_radius!r} != recomputed {radius!r}"
        )
    if len(searches) != 1:
        fails.append(f"expected one radius search, observed {len(searches)}")
        return radius, fails
    s = searches[0]
    T = np.asarray(s["T"], dtype=np.float64)
    w = np.asarray(s["w"], dtype=np.float64)
    if w.sum() != n:
        fails.append(f"coreset weights sum to {w.sum()}, expected n={n}")
    res = s["result"]
    idx = np.asarray(res.cluster.centers_idx)
    if not np.array_equal(T[idx], centers):
        fails.append("returned centers are not the search's coreset points")
    # Coverage radius of OutliersCluster at the returned r; a point exactly
    # on the boundary may round either way, hence the relative slack.
    cover = (3.0 + 4.0 * s["eps_hat"]) * res.r * (1.0 + RADIUS_RTOL)
    uncovered = w[closest_dist(T, T[idx]) > cover].sum()
    if uncovered > z:
        fails.append(f"search leaves uncovered weight {uncovered} > z={z}")
    return radius, fails
