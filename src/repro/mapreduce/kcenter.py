"""Section 3.1 — the 2-round (2+eps)-approximation MapReduce algorithm for
k-center.

Round 1: partition S into ell subsets, run GMM per subset for a fixed
coreset size tau = mu*k, as the experiments do (the theory's
(eps/2)-radius rule past k centers is not an option of the code). Round 2:
gather the union T of the coresets at the driver ("a single reducer") and
run GMM on T for the final k centers. With mu = 1 (tau = k) this
algorithm *is* the MALKOMESETAL [26] baseline of Figure 2.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.gmm import gmm
from repro.core.metric import finite_points
from repro.core.result import Clock, Result
from repro.data.datasets import to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import run_round1


def mr_kcenter(
    spark: SparkSession,
    points,
    k: int,
    ell: int,
    *,
    tau: int,
) -> Result:
    """Run the full 2-round algorithm on ``points`` with parallelism ``ell``
    over contiguous subsets.

    ``tau`` is the fixed per-partition coreset size, at least k. The
    radius is r_T(S) over the full input, computed distributively.
    """
    clock = Clock()
    points = finite_points(points)
    if not 0 < k < len(points):
        raise ValueError(f"need 0 < k < n, got k={k}, n={len(points)}")
    if tau < k:
        raise ValueError(f"tau must be >= {k}, got {tau}")
    pids = make_pids(len(points), ell)
    blocks = to_spark(spark, points, pids=pids)
    clock.lap("setup")
    r1 = run_round1(blocks, ell, tau)
    clock.lap("round1")
    centers = gmm(r1.points, k).centers(r1.points)
    clock.lap("round2")
    rad = radius_spark(blocks, centers, z=0)
    clock.lap("evaluate")
    return Result(
        centers, clock.timings, radius=rad, coreset_size=r1.size,
        coreset_weight=int(r1.weights.sum()), part_sizes=r1.part_sizes,
    )
