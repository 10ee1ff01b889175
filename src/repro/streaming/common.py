"""What the streaming algorithms share: the result record, the block scan
of the update rule, the greedy cover behind the doubling merge rule and
BASESTREAM's re-clustering, and the [27] seeding and guess ladder of the
two baselines (BASESTREAM, BASEOUTLIERS).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.metric import cdist, check_kz, min_gap

# Stream rows whose nearest centers one scan step finds in a single
# ``metric.nearest`` call. A larger block wastes more rows after a point
# that changes the centers; on the benchmark's stream (d=7, tau=880, a
# 4-vCPU Xeon) 64-128 rows were fastest.
BLOCK_ROWS = 128


def first_far(dist: np.ndarray, thresh: float) -> int:
    """One step of the streaming block scan: the first row of a block whose
    nearest-center distance ``dist`` (from ``metric.nearest``) exceeds
    ``thresh``, or ``len(dist)`` if there is none. The rows before it take
    the update rule against unchanged centers; that row changes the
    centers, so the caller handles it alone and restarts the scan after
    it."""
    far = np.flatnonzero(dist > thresh)
    return int(far[0]) if len(far) else len(dist)


def greedy_cover(D: np.ndarray, thresh: float) -> np.ndarray:
    """Greedy cover at ``thresh`` of the points behind ``D = cdist(P, P)``,
    read in order: a point within ``thresh`` of a kept point folds into its
    nearest kept point (the earliest on a tie); any other point is kept.

    Returns ``owner``, the kept point each point maps to (``owner[i] == i``
    for a kept point). Each kept point lowers the running nearest-kept
    distance of the later points from its own row of ``D``, reading
    ``D[j, i]`` for ``D[i, j]``: ``D`` must be bit-symmetric, as
    ``cdist(P, P)`` is.
    """
    n = len(D)
    owner = np.arange(n)
    nearest = np.full(n, np.inf)  # distance to the nearest kept point so far
    for i in range(n):
        if nearest[i] <= thresh:
            continue
        owner[i] = i  # an earlier kept point farther than thresh claimed it
        row, tail = D[i, i + 1 :], nearest[i + 1 :]
        closer = row < tail  # strict: the earlier kept point wins a tie
        tail[closer] = row[closer]
        owner[i + 1 :][closer] = i
    return owner


@dataclass(frozen=True)
class StreamResult:
    """Centers plus the metrics the streaming experiments report."""

    centers: np.ndarray
    space: int  # peak number of stored points (the "space" axis of Figs 3/5)
    throughput: float  # points / second over the pass
    n_processed: int
    t_stream: float  # time spent consuming the stream
    t_final: float  # post-pass computation on the working memory

    @classmethod
    def timed(
        cls, centers, space: int, n_processed: int, t0: float, t1: float,
        t2: float,
    ) -> "StreamResult":
        """Record a run whose pass spans [t0, t1] and whose post-pass step
        spans [t1, t2]."""
        dt = t1 - t0
        return cls(
            centers=centers,
            space=space,
            throughput=n_processed / dt if dt > 0 else float("inf"),
            n_processed=n_processed,
            t_stream=dt,
            t_final=t2 - t1,
        )


def guess_ladder_stream(
    points: np.ndarray,
    k: int,
    m: int,
    *,
    seed_size: int,
    new_instance: Callable[[float], object],
    finish: Callable[[object], np.ndarray],
    space: int,
) -> StreamResult:
    """Run ``m`` guess-based instances of a [27] baseline over ``points``.

    Points are buffered until ``seed_size`` of them are distinct; the
    minimum gap g between the distinct buffered points fixes the distance
    scale (a repeated point would otherwise keep the gap at 0). Then ``m``
    instances start with guesses (g/2) * 2^(i/m), i in [0, m): a geometric
    ladder of granularity 2^(1/m), so larger m gives a finer guess. Each
    instance (built by ``new_instance(r)``; it exposes ``process(points)``
    and its current guess ``r``) replays the buffer and then sees every
    remaining point in order. The buffer is the stream's prefix and the
    instances share no state, so each instance reads the whole stream in
    one ``process`` call, one instance after the other. At end of stream
    ``finish`` turns the instance with the smallest surviving guess into
    centers; its time is the post-pass time.

    If no scale is ever fixed (the stream ends before ``seed_size``
    distinct points with a positive gap arrive), the first k distinct
    buffered points in sorted order are returned.
    """
    check_kz(k)
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(points)
    t0 = time.perf_counter()
    distinct: dict[bytes, np.ndarray] = {}  # first occurrences, in order
    instances: list = []
    for p in points:
        key = p.tobytes()
        if key in distinct:
            continue
        distinct[key] = p
        if len(distinct) >= seed_size:
            S = np.asarray(list(distinct.values()))
            gap = min_gap(cdist(S, S))
            if gap > 0.0:
                base = gap / 2.0
                instances = [
                    new_instance(base * 2.0 ** (i / m)) for i in range(m)
                ]
                break
    if not instances:
        uniq = np.unique(points, axis=0)
        t1 = time.perf_counter()
        return StreamResult.timed(uniq[:k], n, n, t0, t1, t1)
    for inst in instances:
        inst.process(points)
    t1 = time.perf_counter()
    centers = finish(min(instances, key=lambda inst: inst.r))
    t2 = time.perf_counter()
    return StreamResult.timed(centers, space, n, t0, t1, t2)
