"""Distributed evaluation of a solution's clustering radius.

Once either MapReduce algorithm has produced its (small) set of centers,
the quality metric of the paper — the radius of the induced clustering,
optionally discarding the z farthest points — must be computed over the
*full* input. That is a distributed pass over the same RDD of numpy blocks
``(ids, pids, X)`` that round 1 read (``repro.data.datasets.to_spark``):
the centers travel with the task, each block computes its points'
closest-center distances with ``min_dist`` and emits only its top (z+1)
(``np.partition``), and the driver takes the (z+1)-th largest of the
merged candidates. Aggregate traffic is O(blocks * (z+1)), never O(n).
Like round 1's tasks, ``_block_top`` starts with ``lean_worker()`` so that
a reused Python worker does not re-read its zip archives on every task.
"""
from __future__ import annotations

import numpy as np
from pyspark import RDD

from repro.core.metric import as_points, min_dist
from repro.mapreduce.worker import lean_worker


def _block_top(block, centers: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` largest closest-center distances of one block, unordered."""
    lean_worker()
    d, _ = min_dist(block[2], centers)
    if len(d) > m:
        d = np.partition(d, len(d) - m)[len(d) - m:]
    return d


def top_distances(blocks: RDD, centers, m: int) -> np.ndarray:
    """The ``m`` largest closest-center distances across ``blocks``,
    descending."""
    centers = as_points(centers)
    tops = blocks.map(lambda b: _block_top(b, centers, m)).collect()
    merged = np.sort(np.concatenate(tops))[::-1]
    return merged[:m]


def radius_spark(blocks: RDD, centers, z: int = 0) -> float:
    """r_{T,Z_T}(S) computed distributively: the (z+1)-th largest
    closest-center distance over all blocks (z=0: plain radius)."""
    top = top_distances(blocks, centers, z + 1)
    if len(top) <= z:
        return 0.0  # fewer than z+1 points: everything may be discarded
    return float(top[z])
