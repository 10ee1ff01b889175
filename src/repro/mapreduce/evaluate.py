"""Distributed evaluation of a solution's clustering radius.

Once either MapReduce algorithm has produced its (small) set of centers,
the quality metric of the paper — the radius of the induced clustering,
optionally discarding the z farthest points — must be computed over the
*full* input. That is a distributed pass: broadcast the centers, have each
partition compute its points' closest-center distances with numpy and emit
only its top (z+1) distances, then take the (z+1)-th largest of the merged
candidates at the driver. Aggregate traffic is O(ell * (z+1)), never O(n).
"""
from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np
from pyspark.sql import DataFrame

from repro.core.metric import as_points, min_dist


def _partition_top(
    it: Iterator, centers: np.ndarray, m: int
) -> Iterator[list[float]]:
    feats = [row.features for row in it]
    if not feats:
        return
    d, _ = min_dist(np.asarray(feats, dtype=np.float64), centers)
    yield heapq.nlargest(m, d.tolist())


def top_distances(df: DataFrame, centers, m: int) -> np.ndarray:
    """The ``m`` largest closest-center distances across ``df``, descending."""
    centers = as_points(centers)
    sc = df.sparkSession.sparkContext
    b = sc.broadcast(centers)
    tops = (
        df.select("features")
        .rdd.mapPartitions(lambda it: _partition_top(it, b.value, m))
        .collect()
    )
    b.unpersist()
    merged = [v for top in tops for v in top]
    merged.sort(reverse=True)
    return np.asarray(merged[:m], dtype=np.float64)


def radius_spark(df: DataFrame, centers, z: int = 0) -> float:
    """r_{T,Z_T}(S) computed distributively: the (z+1)-th largest
    closest-center distance over the whole DataFrame (z=0: plain radius)."""
    top = top_distances(df, centers, z + 1)
    if len(top) <= z:
        return 0.0  # fewer than z+1 points: everything may be discarded
    return float(top[z])

