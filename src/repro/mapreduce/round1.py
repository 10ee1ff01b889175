"""Round 1 of both MapReduce algorithms: per-subset weighted coresets.

The input is an RDD of numpy blocks ``(ids, pids, X)`` (see
``repro.data.datasets.to_spark``) in which every point carries an explicit
subset id ``pid`` in [0, ell) (see ``partitioning``), and every subset
lies whole in one block: ``to_spark`` puts pid i in partition i mod P,
with P = defaultParallelism. Round 1 is therefore one narrow stage with
no shuffle: each task slices its block by pid and runs the reducers of
its pids one after the other, one ``gmm(S_i, tau)`` call per subset
S_i, as in "one reducer per subset" of the 2-round MapReduce schema.
There is one task per slot rather than one per subset because each extra
wave of Spark Python tasks costs ~0.06 s even for trivial work
(DESIGN.md §2); the subsets and their coresets do not depend on P. The
task function starts with ``lean_worker()``: without it, every task
re-reads the zip archives on the worker's Python path (pyspark, py4j, the
spark-core jar) for 0.16–0.25 s. Each driver checks ``tau`` against the
paper's bound before any pass.

Within a subset, points are sorted by ``id`` before running GMM, so the
coresets depend only on the pid assignment, not on how the rows are
ordered inside a block or which block holds a subset (GMM's output
depends on input order through the arbitrary first center). A subset
split across blocks would reach two reducers; ``run_round1`` rejects the
output if one pid comes back twice.

The union of the weighted coresets is returned as driver-side numpy
arrays, ordered by pid and then lexicographically by coordinates, which is
precisely what round 2 consumes ("the union of the coresets is gathered
into a single reducer").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from pyspark import RDD

from repro.core.gmm import gmm
from repro.mapreduce.worker import lean_worker


def build_coreset(X: np.ndarray, tau: int):
    """One subset's weighted coreset: ``(points, weights)``."""
    res = gmm(X, tau)
    return res.centers(X), res.weights()


@dataclass(frozen=True)
class Round1Result:
    """Union of the per-partition weighted coresets (driver side)."""

    points: np.ndarray  # (|T|, d)
    weights: np.ndarray  # (|T|,) int64 proxy weights
    pids: np.ndarray  # (|T|,) originating partition of each coreset point
    part_sizes: dict[int, int]  # |S_i| seen by each reducer

    @property
    def size(self) -> int:
        return len(self.points)


def _block_coresets(block, tau: int):
    """One task: each subset of ``block`` in id order, and its coreset.
    Yields ``(pid, coreset points, weights, |S_pid|)``."""
    lean_worker()
    ids, pids, X = block
    order = np.lexsort((ids, pids))  # by pid, then id
    present, starts = np.unique(pids[order], return_index=True)
    for pid, rows in zip(present, np.split(order, starts[1:])):
        centers, weights = build_coreset(X[rows], tau)
        yield int(pid), centers, weights, len(rows)


def run_round1(blocks: RDD, ell: int, tau: int) -> Round1Result:
    """Execute round 1 over ``blocks`` (an RDD of ``(ids, pids, X)``
    blocks, each subset whole in one block, as ``to_spark`` lays them out)
    and collect the union of the weighted coresets at the driver, each
    built by ``build_coreset(S_i, tau)``. ``part_sizes`` has an entry
    for every pid in [0, ell), 0 for a subset that received no point.
    Raises ``ValueError`` if a subset came back from two blocks, or if a
    block held a pid outside [0, ell)."""
    out = blocks.flatMap(partial(_block_coresets, tau=tau)).collect()
    if not out:
        raise ValueError("round 1 produced an empty coreset union")
    out.sort(key=lambda r: r[0])
    if out[-1][0] >= ell:
        raise ValueError(f"subset {out[-1][0]} is outside [0, {ell})")
    for a, b in zip(out, out[1:]):
        if a[0] == b[0]:
            raise ValueError(f"subset {a[0]} arrived split across blocks")
    part_sizes = dict.fromkeys(range(ell), 0)
    points, weights, pids = [], [], []
    for pid, C, w, size in out:
        order = np.lexsort(C.T[::-1])
        points.append(C[order])
        weights.append(w[order])
        pids.append(np.full(len(C), pid, dtype=np.int64))
        part_sizes[pid] = size
    return Round1Result(
        points=np.concatenate(points),
        weights=np.concatenate(weights),
        pids=np.concatenate(pids),
        part_sizes=part_sizes,
    )
