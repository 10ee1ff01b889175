"""Round-1 partition-id assignment for the MapReduce algorithms.

The deterministic algorithms only require an *arbitrary* partition of S
into ell equally-sized subsets (Sections 3.1/3.2); the randomized variant
(Section 3.2.1) requires each point to pick a partition uniformly and
independently; and the outliers experiments (Section 5.2) additionally use
an *adversarial* partition that places all injected outliers in the same
subset "so to better test the benefits of randomization".
"""
from __future__ import annotations

import numpy as np

MODES = ("contiguous", "random", "adversarial")


def make_pids(
    n: int,
    ell: int,
    mode: str = "contiguous",
    *,
    seed: int = 0,
    outlier_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Partition ids in [0, ell) for ``n`` points.

    ``contiguous``   equal-size blocks in input order (the paper's
                     "partitioned into ell subsets of equal size").
    ``random``       uniform independent choice (randomized variant).
    ``adversarial``  all points flagged in ``outlier_mask`` go to partition
                     0; the rest are spread in equal contiguous blocks.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if n < ell:
        raise ValueError(f"need at least ell={ell} points, got n={n}")
    if mode == "contiguous":
        return (np.arange(n, dtype=np.int64) * ell // n).astype(np.int32)
    if mode == "random":
        return np.random.default_rng(seed).integers(
            0, ell, n, dtype=np.int32
        )
    if mode == "adversarial":
        if outlier_mask is None:
            raise ValueError("adversarial mode requires outlier_mask")
        outlier_mask = np.asarray(outlier_mask, dtype=bool)
        if outlier_mask.shape != (n,):
            raise ValueError("outlier_mask length mismatch")
        pids = np.zeros(n, dtype=np.int32)
        non = np.flatnonzero(~outlier_mask)
        m = len(non)
        if m:
            pids[non] = (np.arange(m, dtype=np.int64) * ell // m).astype(
                np.int32
            )
        return pids
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def partition_sizes(pids: np.ndarray, ell: int) -> np.ndarray:
    """Number of points assigned to each of the ell partitions."""
    return np.bincount(np.asarray(pids), minlength=ell)
