"""Round 1 of both MapReduce algorithms: per-subset weighted coresets.

The input is an RDD of numpy blocks ``(ids, pids, X)`` (see
``repro.data.datasets.to_spark``) in which every point carries an explicit
subset id ``pid`` in [0, ell) (see ``partitioning``). The map side splits
each block by pid into sub-blocks ``(pid, (ids, X))``. ``partitionBy``
sends pid i to Spark partition i mod P, with P = min(ell,
defaultParallelism), and each reduce task runs the reducers of its pids
one after the other: one ``gmm(S_i, tau, eps=eps)`` call per subset S_i,
as in "one reducer per subset" of the 2-round MapReduce schema. There is
one task per slot rather than one per subset because each extra wave of
Spark Python tasks costs ~0.06 s even for trivial work (DESIGN.md §2);
the subsets and their coresets do not depend on P. Both task functions
start with ``lean_worker()``: without it, every task re-reads the zip
archives on the worker's Python path (pyspark, py4j, the spark-core jar)
for 0.16–0.25 s. The drivers check ``tau`` and ``eps`` with
``coreset_rule`` before any pass.

Within a subset, points are sorted by ``id`` before running GMM, so the
coresets depend only on the pid assignment, not on how the input is cut
into blocks or on the order in which the shuffle delivers sub-blocks
(GMM's output depends on input order through the arbitrary first center).

The union of the weighted coresets is returned as driver-side numpy
arrays, ordered by pid and then lexicographically by coordinates, which is
precisely what round 2 consumes ("the union of the coresets is gathered
into a single reducer").
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np
from pyspark import RDD

from repro.core.gmm import gmm
from repro.mapreduce.worker import lean_worker


def coreset_rule(
    tau: int | None, eps: float | None, *, k_base: int, tau_min: int
) -> tuple[int, float | None]:
    """Check a driver's coreset arguments before any pass over the input
    and return the ``(tau, eps)`` pair each reducer hands to ``gmm``.

    Exactly one of ``tau`` (the experiments' fixed size, at least
    ``tau_min``) or ``eps`` (the theory's rule, run past ``k_base``
    centers) must be given.
    """
    if (tau is None) == (eps is None):
        raise ValueError("exactly one of tau=... or eps=... must be given")
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tau = k_base if tau is None else tau
    if tau < tau_min:
        raise ValueError(f"tau must be >= {tau_min}, got {tau}")
    return tau, eps


def build_coreset(X: np.ndarray, tau: int, eps: float | None):
    """One subset's weighted coreset: ``(points, weights)``."""
    res = gmm(X, tau, eps=eps)
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


def _split_by_pid(block):
    """Map side: one sub-block ``(pid, (ids, X))`` per pid in ``block``."""
    lean_worker()
    ids, pids, X = block
    for pid in np.unique(pids):
        sel = pids == pid
        yield int(pid), (ids[sel], X[sel])


def _subset_coresets(it, tau: int, eps: float | None):
    """Reduce side: gather the sub-blocks of each pid routed to this task,
    sort the subset by id and build its coreset. Yields
    ``(pid, coreset points, weights, |S_pid|)``."""
    lean_worker()
    subsets: dict[int, list] = defaultdict(list)
    for pid, sub in it:
        subsets[pid].append(sub)
    for pid, subs in subsets.items():
        ids = np.concatenate([i for i, _ in subs])
        order = np.argsort(ids, kind="stable")
        X = np.concatenate([x for _, x in subs])[order]
        centers, weights = build_coreset(X, tau, eps)
        yield pid, centers, weights, len(X)


def run_round1(
    blocks: RDD, ell: int, tau: int, eps: float | None = None
) -> Round1Result:
    """Execute round 1 over ``blocks`` (an RDD of ``(ids, pids, X)``
    blocks) and collect the union of the weighted coresets at the driver,
    each built by ``build_coreset(S_i, tau, eps)``. ``part_sizes`` has an
    entry for every pid in [0, ell), 0 for a subset that received no
    point."""
    tasks = min(ell, blocks.context.defaultParallelism)
    out = (
        blocks.flatMap(_split_by_pid)
        .partitionBy(tasks, lambda pid: pid)
        .mapPartitions(partial(_subset_coresets, tau=tau, eps=eps))
        .collect()
    )
    if not out:
        raise ValueError("round 1 produced an empty coreset union")
    # Deterministic driver-side order regardless of shuffle arrival order.
    out.sort(key=lambda r: r[0])
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
