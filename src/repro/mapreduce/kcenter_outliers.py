"""Sections 3.2 / 3.2.1 — the 2-round (3+eps)-approximation MapReduce
algorithms for k-center with z outliers, deterministic and randomized.

Round 1 builds *weighted* per-partition coresets (GMM past k+z centers for
the deterministic variant; past k + z' with z' = 6(z/ell + log2 n) for the
randomized one, which partitions the input uniformly at random). Round 2
gathers the weighted union T and runs OutliersCluster under the
minimum-feasible-radius search of ``repro.core.search``.

The experiments (Figure 4) fix the per-partition size instead of eps:
tau = mu*(k+z) deterministic, tau = mu*(k + 6z/ell) randomized.

With ``ell = 1`` the deterministic variant is the paper's *improved
sequential algorithm* (Section 3.2, "Improved sequential algorithm"), and
with ``ell = 1, mu = 1`` it is the MALKOMESETAL [26] baseline of Figure 8.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.metric import check_kz, finite_points
from repro.core.search import RadiusSearchResult, min_feasible_radius
from repro.data.datasets import to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import (
    Round1Result,
    build_coreset,
    coreset_rule,
    run_round1,
)


@dataclass(frozen=True)
class MROutliersResult:
    """Final centers plus the bookkeeping the experiments report."""

    centers: np.ndarray  # (<=k, d)
    radius: float  # r_{T,Z_T}(S): z-outlier radius over the full input
    r_search: float  # the feasible radius found by the round-2 search
    coreset_size: int  # |T|, union of weighted coresets
    coreset_weight: int  # total weight (must equal |S|)
    part_sizes: dict[int, int]
    search_evaluations: int
    # the search's (r, uncovered_weight, n_centers) per probe, in order
    search_trace: tuple[tuple[float, float, int], ...]
    t_coreset: float  # round-1 wall time
    t_cluster: float  # round-2 wall time (search + OutliersCluster)


def randomized_zprime(n: int, z: int, ell: int) -> int:
    """z' = 6 * (z/ell + log2 n): the w.h.p. per-partition outlier bound of
    Lemma 7: the randomized variant runs GMM past k + z' centers under
    the eps rule."""
    return math.ceil(6.0 * (z / ell + math.log2(max(2, n))))


def experiment_tau(
    mu: float, k: int, z: int, ell: int, *, randomized: bool
) -> int:
    """The experiments' fixed per-partition coreset sizes (Section 5.2):
    mu*(k+z) deterministic, mu*(k + 6 z / ell) randomized (the log term is
    dropped there, as in the paper)."""
    base = k + (6.0 * z / ell if randomized else z)
    return max(k + 1, math.ceil(mu * base))


def mr_kcenter_outliers(
    spark: SparkSession,
    points,
    k: int,
    z: int,
    ell: int,
    *,
    tau: int | None = None,
    eps: float | None = None,
    eps_hat: float = 0.05,
    randomized: bool = False,
    outlier_mask: np.ndarray | None = None,
    seed: int = 0,
) -> MROutliersResult:
    """Run the full 2-round outliers algorithm with parallelism ``ell``.

    Exactly one of ``tau`` (fixed per-partition coreset size, >= k+z, or
    >= k for the randomized variant) or ``eps`` (the paper's rule, GMM
    past k+z or k+z' centers) must be given. ``eps_hat`` parameterizes
    OutliersCluster's ball radii and the search tolerance.
    The partitioning is random for the randomized variant (its guarantee
    needs it), adversarial when ``outlier_mask`` is given (every flagged
    point in one subset), and contiguous otherwise.
    """
    points = finite_points(points)
    n = len(points)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if not 0 <= z < n:
        raise ValueError(f"need 0 <= z < n, got z={z}, n={n}")
    tau, eps = coreset_rule(
        tau, eps,
        k_base=k + (randomized_zprime(n, z, ell) if randomized else z),
        tau_min=k if randomized else k + z,
    )

    mode = ("random" if randomized
            else "contiguous" if outlier_mask is None else "adversarial")
    pids = make_pids(n, ell, mode, seed=seed, outlier_mask=outlier_mask)
    blocks = to_spark(spark, points, pids=pids)
    t0 = time.perf_counter()
    r1: Round1Result = run_round1(blocks, ell, tau, eps)
    t1 = time.perf_counter()
    search: RadiusSearchResult = min_feasible_radius(
        r1.points, r1.weights, k, z, eps_hat
    )
    centers = search.centers(r1.points)
    t2 = time.perf_counter()
    rad = radius_spark(blocks, centers, z=z)
    return MROutliersResult(
        centers=centers,
        radius=rad,
        r_search=search.r,
        coreset_size=r1.size,
        coreset_weight=int(r1.weights.sum()),
        part_sizes=r1.part_sizes,
        search_evaluations=search.evaluations,
        search_trace=search.trace,
        t_coreset=t1 - t0,
        t_cluster=t2 - t1,
    )


def sequential_coreset_outliers(
    points,
    k: int,
    z: int,
    *,
    tau: int | None = None,
    eps: float | None = None,
    eps_hat: float = 0.05,
) -> tuple[np.ndarray, RadiusSearchResult, float, float]:
    """The paper's improved sequential algorithm: the ell = 1 MapReduce
    strategy run without Spark (used by the Figure 8 / T7 harness, where
    all competitors are sequential and must be timed on equal footing).
    Exactly one of ``tau`` (>= k+z) or ``eps`` must be given.

    Returns ``(centers, search_result, t_coreset, t_cluster)``.
    """
    check_kz(k, z)
    tau, eps = coreset_rule(tau, eps, k_base=k + z, tau_min=k + z)
    points = finite_points(points)
    t0 = time.perf_counter()
    T, w = build_coreset(points, tau, eps)
    t1 = time.perf_counter()
    search = min_feasible_radius(T, w, k, z, eps_hat)
    t2 = time.perf_counter()
    return search.centers(T), search, t1 - t0, t2 - t1
