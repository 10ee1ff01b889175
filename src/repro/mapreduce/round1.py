"""Round 1 of both MapReduce algorithms: per-partition weighted coresets.

The input DataFrame carries an explicit partition id ``pid`` in [0, ell)
(see ``partitioning``). Round 1 runs ``partitionBy(ell)`` on
(pid, point) pairs followed by ``mapPartitions``: one Spark partition per
subset S_i, exactly mirroring "one reducer per subset" of the 2-round
MapReduce schema.

Within a subset, points are sorted by ``id`` before running GMM, so the
coresets depend only on the pid assignment, not on the input frame's
partitioning or the shuffle's arrival order (GMM's output depends on input
order through the arbitrary first center).

The union of the weighted coresets is returned as driver-side numpy
arrays — which is precisely what round 2 consumes ("the union of the
coresets is gathered into a single reducer").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np
from pyspark.sql import DataFrame

from repro.core.gmm import gmm_coreset_adaptive, gmm_coreset_fixed

@dataclass(frozen=True)
class CoresetSpec:
    """How each round-1 reducer grows its coreset.

    ``tau``: fixed coreset size (the experiments' mu*k / mu*(k+z)); mutually
    exclusive with the adaptive rule below.
    ``k_base``/``eps``: the theoretical stopping rule — run GMM past
    ``k_base`` centers until the radius drops below (eps/2) * r_{T^k_base}.
    """

    tau: int | None = None
    k_base: int | None = None
    eps: float | None = None

    def __post_init__(self):
        fixed = self.tau is not None
        adaptive = self.k_base is not None and self.eps is not None
        if fixed == adaptive:
            raise ValueError(
                "specify exactly one of tau=... or (k_base=..., eps=...)"
            )


def _build_coreset(X: np.ndarray, spec: CoresetSpec):
    if spec.tau is not None:
        return gmm_coreset_fixed(X, spec.tau)
    return gmm_coreset_adaptive(X, spec.k_base, spec.eps)


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


def _coreset_rows(pid: int, ids, feats, spec: CoresetSpec):
    """Sort one subset by id, build its coreset, emit output rows."""
    order = np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")
    X = np.asarray(feats, dtype=np.float64)[order]
    centers, weights, _ = _build_coreset(X, spec)
    n = len(X)
    for c, w in zip(centers, weights):
        yield (int(pid), [float(v) for v in c], int(w), int(n))


def _partition_coresets(
    it: Iterator[tuple[int, tuple[int, list]]], spec: CoresetSpec
):
    """mapPartitions body: group by pid (one pid per partition under
    identity partitioning, but grouping keeps it correct regardless)."""
    by_pid: dict[int, tuple[list, list]] = {}
    for pid, (i, f) in it:
        ids, feats = by_pid.setdefault(pid, ([], []))
        ids.append(i)
        feats.append(f)
    for pid, (ids, feats) in by_pid.items():
        yield from _coreset_rows(pid, ids, feats, spec)


def run_round1(df: DataFrame, ell: int, spec: CoresetSpec) -> Round1Result:
    """Execute round 1 over ``df`` (schema id/pid/features) and collect the
    union of the weighted coresets at the driver."""
    pairs = df.select("pid", "id", "features").rdd.map(
        lambda row: (row.pid, (row.id, row.features))
    )
    rows = (
        pairs.partitionBy(ell, lambda pid: int(pid))
        .mapPartitions(partial(_partition_coresets, spec=spec))
        .collect()
    )
    if not rows:
        raise ValueError("round 1 produced an empty coreset union")
    # Deterministic driver-side order regardless of shuffle arrival order.
    rows.sort(key=lambda r: (r[0], r[1]))
    pids = np.array([r[0] for r in rows], dtype=np.int64)
    points = np.array([r[1] for r in rows], dtype=np.float64)
    weights = np.array([r[2] for r in rows], dtype=np.int64)
    part_sizes = {int(r[0]): int(r[3]) for r in rows}
    return Round1Result(
        points=points, weights=weights, pids=pids, part_sizes=part_sizes
    )
