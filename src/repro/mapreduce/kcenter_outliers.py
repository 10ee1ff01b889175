"""Sections 3.2 / 3.2.1 — the 2-round (3+eps)-approximation MapReduce
algorithms for k-center with z outliers, deterministic and randomized.

Round 1 builds *weighted* per-partition coresets of a fixed size tau, as
the experiments (Figure 4) do: tau = mu*(k+z) for the deterministic
variant, tau = mu*(k + 6z/ell) for the randomized one, which partitions
the input uniformly at random. (The theory runs GMM past k+z, or past
k + z' with z' = 6(z/ell + log2 n), under an eps rule that is not an
option of the code.) Round 2 gathers the weighted union T and runs
OutliersCluster under the minimum-feasible-radius search of
``repro.core.search``.

With ``ell = 1`` the deterministic variant is the paper's *improved
sequential algorithm* (Section 3.2, "Improved sequential algorithm"), and
with ``ell = 1, mu = 1`` it is the MALKOMESETAL [26] baseline of Figure 8.
"""
from __future__ import annotations

import math

import numpy as np
from pyspark.sql import SparkSession

from repro.core.metric import check_kz, finite_points
from repro.core.result import Clock, Result
from repro.core.search import min_feasible_radius
from repro.data.datasets import to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import build_coreset, run_round1


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
    tau: int,
    eps_hat: float = 0.05,
    randomized: bool = False,
    outlier_mask: np.ndarray | None = None,
    seed: int = 0,
) -> Result:
    """Run the full 2-round outliers algorithm with parallelism ``ell``.

    ``tau`` is the fixed per-partition coreset size: at least k+z, or at
    least k for the randomized variant. ``eps_hat`` parameterizes
    OutliersCluster's ball radii and the search tolerance.
    The partitioning is random for the randomized variant (its guarantee
    needs it), adversarial when ``outlier_mask`` is given (every flagged
    point in one subset), and contiguous otherwise. The radius is the
    z-outlier radius r_{T,Z_T}(S) over the full input, computed
    distributively.
    """
    clock = Clock()
    points = finite_points(points)
    n = len(points)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if not 0 <= z < n:
        raise ValueError(f"need 0 <= z < n, got z={z}, n={n}")
    tau_min = k if randomized else k + z
    if tau < tau_min:
        raise ValueError(f"tau must be >= {tau_min}, got {tau}")

    mode = ("random" if randomized
            else "contiguous" if outlier_mask is None else "adversarial")
    pids = make_pids(n, ell, mode, seed=seed, outlier_mask=outlier_mask)
    blocks = to_spark(spark, points, pids=pids)
    clock.lap("setup")
    r1 = run_round1(blocks, ell, tau)
    clock.lap("round1")
    search = min_feasible_radius(r1.points, r1.weights, k, z, eps_hat)
    centers = search.centers(r1.points)
    clock.lap("round2")
    rad = radius_spark(blocks, centers, z=z)
    clock.lap("evaluate")
    return Result(
        centers, clock.timings, radius=rad, coreset_size=r1.size,
        coreset_weight=int(r1.weights.sum()), part_sizes=r1.part_sizes,
        search=search,
    )


def sequential_coreset_outliers(
    points,
    k: int,
    z: int,
    *,
    tau: int,
    eps_hat: float = 0.05,
) -> Result:
    """The paper's improved sequential algorithm: the ell = 1 MapReduce
    strategy run without Spark (used by the Figure 8 / T7 harness, where
    all competitors are sequential and must be timed on equal footing).
    ``tau``, the coreset size, is at least k+z.
    """
    clock = Clock()
    check_kz(k, z)
    if tau < k + z:
        raise ValueError(f"tau must be >= {k + z}, got {tau}")
    points = finite_points(points)
    clock.lap("setup")
    T, w = build_coreset(points, tau)
    clock.lap("round1")
    search = min_feasible_radius(T, w, k, z, eps_hat)
    centers = search.centers(T)
    clock.lap("round2")
    return Result(
        centers, clock.timings, coreset_size=len(T),
        coreset_weight=int(w.sum()), search=search,
    )
