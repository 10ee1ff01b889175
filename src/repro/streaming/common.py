"""What the streaming algorithms share: the block scan of the update
rule, the greedy cover behind the doubling merge rule and BASESTREAM's
re-clustering, and the [27] seeding and guess ladder of the two baselines
(BASESTREAM, BASEOUTLIERS).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.metric import cdist, check_kz, finite_points, min_gap, nearest
from repro.core.result import Clock, Result

# Stream rows whose nearest centers ``scan`` finds in a single
# ``metric.nearest`` call. A larger block wastes more rows after a point
# that changes the centers; on the benchmark's stream (d=7, tau=880, a
# 4-vCPU Xeon) 64-128 rows were fastest.
BLOCK_ROWS = 128


def scan(
    P, i: int, C, thresh: float, nP=None, nC=None
) -> tuple[int, np.ndarray]:
    """The streaming block scan: read ``P`` from row ``i`` against the
    fixed centers ``C``, ``BLOCK_ROWS`` rows per ``metric.nearest`` call.

    Returns ``(j, counts)``: ``j`` is the first row farther than
    ``thresh`` from every center (``len(P)`` if there is none, ``i`` if
    ``C`` is empty), and ``counts`` the number of rows of ``[i, j)`` whose
    nearest center (the first on a tie) is each center. Row ``j`` changes
    the centers, so the caller handles it alone and scans again from
    ``j + 1``. ``nP`` and ``nC`` are cached ``sq_norms`` of ``P`` and
    ``C``, as ``nearest`` takes them.
    """
    counts = np.zeros(len(C), dtype=np.int64)
    if not len(C):
        return i, counts
    while i < len(P):
        hi = i + BLOCK_ROWS
        dist, idx = nearest(P[i:hi], C, None if nP is None else nP[i:hi], nC)
        far = np.flatnonzero(dist > thresh)
        f = int(far[0]) if len(far) else len(dist)
        counts += np.bincount(idx[:f], minlength=len(C))
        i += f
        if f < len(dist):
            break
    return i, counts


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


def guess_ladder_stream(
    points,
    k: int,
    m: int,
    *,
    seed_size: int,
    new_instance: Callable[[float], object],
    finish: Callable[[object], np.ndarray],
    space: int,
) -> Result:
    """Run ``m`` guess-based instances of a [27] baseline over ``points``
    (checked with ``finite_points``).

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
    clock = Clock()
    check_kz(k)
    if m < 1:
        raise ValueError("m must be >= 1")
    points = finite_points(points)
    n = len(points)
    clock.lap("setup")
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
        centers, space = np.unique(points, axis=0)[:k], n
        clock.lap("pass")
    else:
        for inst in instances:
            inst.process(points)
        clock.lap("pass")
        centers = finish(min(instances, key=lambda inst: inst.r))
    clock.lap("final")
    return Result(centers, clock.timings, space=space, n_processed=n)
