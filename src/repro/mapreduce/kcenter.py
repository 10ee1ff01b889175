"""Section 3.1 — the 2-round (2+eps)-approximation MapReduce algorithm for
k-center.

Round 1: partition S into ell subsets, run GMM per subset until the coreset
rule is met (fixed size tau = mu*k in the experiments, or the theory's
(eps/2)-radius rule past k centers, ``gmm(S_i, k, eps=eps)``). Round 2:
gather the union T of the coresets at the driver ("a single reducer") and
run GMM on T for the final k centers. With mu = 1 (tau = k) this
algorithm *is* the MALKOMESETAL [26] baseline of Figure 2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.gmm import gmm
from repro.core.metric import finite_points
from repro.data.datasets import to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import Round1Result, coreset_rule, run_round1


@dataclass(frozen=True)
class MRKCenterResult:
    """Final centers plus the bookkeeping the experiments report."""

    centers: np.ndarray  # (k, d)
    radius: float  # r_T(S) over the full input (distributed)
    coreset_size: int  # |T| = size of the union of coresets
    part_sizes: dict[int, int]
    t_coreset: float  # round-1 wall time (one Spark stage, no shuffle)
    t_final: float  # round-2 wall time (GMM on T)


def mr_kcenter(
    spark: SparkSession,
    points,
    k: int,
    ell: int,
    *,
    tau: int | None = None,
    eps: float | None = None,
    partition_mode: str = "contiguous",
    seed: int = 0,
) -> MRKCenterResult:
    """Run the full 2-round algorithm on ``points`` with parallelism ``ell``.

    Exactly one of ``tau`` (fixed per-partition coreset size, >= k) or
    ``eps`` (the paper's rule, GMM past k centers) must be given.
    """
    points = finite_points(points)
    if not 0 < k < len(points):
        raise ValueError(f"need 0 < k < n, got k={k}, n={len(points)}")
    tau, eps = coreset_rule(tau, eps, k_base=k, tau_min=k)
    pids = make_pids(len(points), ell, partition_mode, seed=seed)
    blocks = to_spark(spark, points, pids=pids)
    t0 = time.perf_counter()
    r1: Round1Result = run_round1(blocks, ell, tau, eps)
    t1 = time.perf_counter()
    final = gmm(r1.points, k)
    centers = final.centers(r1.points)
    t2 = time.perf_counter()
    rad = radius_spark(blocks, centers, z=0)
    return MRKCenterResult(
        centers=centers,
        radius=rad,
        coreset_size=r1.size,
        part_sizes=r1.part_sizes,
        t_coreset=t1 - t0,
        t_final=t2 - t1,
    )
