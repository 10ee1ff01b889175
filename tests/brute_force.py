"""Exact brute-force k-center solvers, the tests' oracles for optimal
radii (exponential in k, so tiny instances only), and the coreset size of
the paper's eps rule. The package itself never calls them."""
from itertools import combinations

import numpy as np

from repro.core.gmm import gmm
from repro.core.metric import as_points, cdist, radius_from_distances


def rule_tau(X, base: int, eps: float) -> int:
    """The coreset size of the paper's eps rule (Sections 3.1 / 3.2): the
    first j >= ``base`` with r_{T^j}(X) <= (eps/2) * r_{T^base}(X), or
    every distinct point of X if no j meets it. GMM is incremental, so
    ``gmm(X, j)`` is a prefix of one full traversal and its radius is that
    traversal's ``radii[j-1]``."""
    radii = gmm(X, len(X)).radii
    base = min(base, len(radii))
    meets = radii[base - 1:] <= eps / 2.0 * radii[base - 1]
    return base + int(meets.argmax()) if meets.any() else len(radii)


def brute_force_kcenter(points, k: int) -> tuple[float, tuple[int, ...]]:
    """Exact optimal k-center radius r*_k by enumerating center subsets:
    the z = 0 case below.

    Only viable for tiny instances (n choose k small); used by tests to
    validate the 2-approximation of GMM and the (2+eps) MR bound.
    """
    return brute_force_kcenter_outliers(points, k, 0)


def brute_force_kcenter_outliers(
    points, k: int, z: int
) -> tuple[float, tuple[int, ...]]:
    """Exact optimal radius r*_{k,z} with z discardable outliers.

    Enumerates center subsets; for each, the objective is the (z+1)-th
    largest closest-center distance.
    """
    points = as_points(points)
    n = len(points)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if not 0 <= z < n:
        raise ValueError(f"need 0 <= z < n, got z={z}, n={n}")
    full = cdist(points, points)
    best_r, best_c = np.inf, None
    for comb in combinations(range(n), k):
        d = full[:, comb].min(axis=1)
        r = radius_from_distances(d, z)
        if r < best_r:
            best_r, best_c = float(r), comb
    return best_r, best_c
