"""Synthetic substitutes for the paper's datasets, and the paper's data
preparation procedures (outlier injection, SMOTE-like inflation).

The algorithms consume points only through Euclidean distances, so the
substitutes aim at the *structural* properties that drive the experiments:

* ``higgs_like``  — d=7 Gaussian mixture with moderately separated clusters
  and heavy-tailed background noise (physics features: clustered but messy).
* ``power_like``  — d=7 mixture whose clusters sit on a low-dimensional
  correlated subspace (household consumption: strongly correlated channels,
  low intrinsic/doubling dimension).
* ``wiki_like``   — d=50 mixture with large isotropic noise, so the
  intrinsic dimension is high and larger coresets buy little (the paper's
  observed behaviour for Wiki).

Outlier injection follows Section 5.2 verbatim: z points at distance
100*r_MEB from the MEB center in random directions, re-sampled until all
pairwise distances between injected points are >= 10*r_MEB.

Inflation follows Section 5.3: sample a base point, add per-coordinate
Gaussian noise with sigma = 10% of that coordinate's range.

``to_spark`` turns a numpy array into the input of the MapReduce drivers:
an RDD of numpy blocks ``(ids, pids, X)``, one per Spark partition, with
each round-1 subset whole in one block.
"""
from __future__ import annotations

import numpy as np
from pyspark import RDD
from pyspark.sql import SparkSession

from repro.core.metric import as_points, cdist


def _mixture(
    n: int,
    d: int,
    n_clusters: int,
    *,
    cluster_std: float,
    box: float,
    noise_frac: float,
    noise_scale: float,
    seed: int,
    subspace_dim: int | None = None,
) -> np.ndarray:
    """Gaussian mixture with optional low-dimensional cluster-center
    subspace and a heavy-tailed background-noise fraction."""
    g = np.random.default_rng(seed)
    if subspace_dim is not None and subspace_dim < d:
        # Centers on a random affine subspace: low doubling dimension.
        basis = g.standard_normal((subspace_dim, d))
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
        centers = g.uniform(-box, box, (n_clusters, subspace_dim)) @ basis
    else:
        centers = g.uniform(-box, box, (n_clusters, d))
    labels = g.integers(0, n_clusters, n)
    pts = centers[labels] + g.standard_normal((n, d)) * cluster_std
    n_noise = int(noise_frac * n)
    if n_noise:
        idx = g.choice(n, n_noise, replace=False)
        # Student-t noise: heavy tails without the unbounded variance of
        # very low degrees of freedom.
        pts[idx] += g.standard_t(3.0, (n_noise, d)) * noise_scale
    return pts


def higgs_like(n: int = 20_000, *, seed: int = 0) -> np.ndarray:
    """d=7 substitute for UCI Higgs (paper: 11M points, 7 derived attrs)."""
    return _mixture(
        n, 7, 40, cluster_std=1.0, box=12.0, noise_frac=0.05,
        noise_scale=3.0, seed=seed,
    )


def power_like(n: int = 20_000, *, seed: int = 1) -> np.ndarray:
    """d=7 substitute for UCI Power (paper: 2.07M points, 7 numeric attrs).

    Cluster centers live on a 3-dimensional subspace, mimicking the strong
    correlation between household power channels (low doubling dimension).
    """
    return _mixture(
        n, 7, 25, cluster_std=0.6, box=10.0, noise_frac=0.02,
        noise_scale=2.0, seed=seed, subspace_dim=3,
    )


def wiki_like(n: int = 20_000, *, seed: int = 2) -> np.ndarray:
    """d=50 substitute for the word2vec Wiki embedding (paper: 5.5M x 50).

    Large isotropic cluster spread relative to center separation gives a
    high effective doubling dimension — the paper's "stress test".
    """
    return _mixture(
        n, 50, 60, cluster_std=1.5, box=3.0, noise_frac=0.10,
        noise_scale=1.5, seed=seed,
    )


DATASETS = {"higgs": higgs_like, "power": power_like, "wiki": wiki_like}


def meb_approx(points) -> tuple[np.ndarray, float]:
    """Approximate minimum enclosing ball: centroid center + covering radius.

    The centroid-centered ball is within a factor sqrt(2) of the true MEB
    radius, which is ample for the injection procedure (outliers are placed
    at 100x this radius; only the order of magnitude matters).
    """
    points = as_points(points)
    c = points.mean(axis=0)
    r = float(cdist(points, c[None, :]).max(initial=0.0))
    return c, r


# Section 5.2's outlier distance from the MEB center and separation, in r_MEB.
OUTLIER_DIST = 100.0
OUTLIER_MIN_SEP = 10.0


def add_outliers(
    points, z: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Inject ``z`` true outliers per Section 5.2.

    Each outlier sits at ``OUTLIER_DIST * r_MEB`` from the MEB center in a
    random direction; directions are rejection-sampled until every pair of
    injected points is >= ``OUTLIER_MIN_SEP * r_MEB`` apart.

    Returns ``(augmented_points, is_outlier_mask)`` with the outliers
    appended after the original points.
    """
    points = as_points(points)
    if z == 0:
        return points, np.zeros(len(points), dtype=bool)
    c, r = meb_approx(points)
    d = points.shape[1]
    g = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    attempts = 0
    while len(out) < z:
        attempts += 1
        if attempts > 1000 * z:
            raise RuntimeError(
                f"could not place {z} outliers with pairwise separation "
                f">= {OUTLIER_MIN_SEP}*r_MEB in dimension {d}"
            )
        v = g.standard_normal(d)
        v /= np.linalg.norm(v)
        p = c + OUTLIER_DIST * r * v
        if all(
            float(np.linalg.norm(p - q)) >= OUTLIER_MIN_SEP * r for q in out
        ):
            out.append(p)
    aug = np.vstack([points, np.array(out)])
    mask = np.zeros(len(aug), dtype=bool)
    mask[len(points):] = True
    return aug, mask


def inflate(points, factor: int, *, seed: int = 0) -> np.ndarray:
    """SMOTE-like inflation (Section 5.3): grow the dataset ``factor``x by
    sampling base points and perturbing each coordinate with Gaussian noise
    of sigma = 10% of that coordinate's range over the original dataset.

    The original points are kept; ``(factor-1)*n`` perturbed copies are
    appended, preserving the clustered structure at a larger scale.
    """
    points = as_points(points)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return points.copy()
    g = np.random.default_rng(seed)
    n, d = points.shape
    sigma = 0.1 * (points.max(axis=0) - points.min(axis=0))
    m = (factor - 1) * n
    base = points[g.integers(0, n, m)]
    return np.vstack([points, base + g.standard_normal((m, d)) * sigma])


# ---------------------------------------------------------------------------
# numpy <-> Spark conversion
# ---------------------------------------------------------------------------

def to_spark(spark: SparkSession, points, *, pids=None) -> RDD:
    """Points as an RDD of numpy blocks ``(ids, pids, X)``, each round-1
    subset whole in its reducer's block.

    ``pids`` (default 0) are the round-1 subset ids (see
    ``repro.mapreduce.partitioning``), one non-negative int32 value per
    point; a wrong shape, a non-integer, a negative entry or one past the
    int32 range raises ``ValueError`` before the cast and before Spark is
    touched. There are ``defaultParallelism`` = P partitions of one block
    each (empty if no pid maps there). Partition p holds every point whose
    pid is p mod P, in (pid, id) order from one stable argsort of the
    pids, as ``ids`` int64 (row numbers), ``pids`` int32 and ``X`` float64
    ``(rows, d)``. Blocks cross into Spark as pickled arrays: no per-point
    Row and no per-point Python list.
    """
    points = as_points(points)
    n = len(points)
    pids = np.zeros(n, dtype=np.int32) if pids is None else np.asarray(pids)
    if pids.shape != (n,):
        raise ValueError(f"pids must have shape ({n},), got {pids.shape}")
    if pids.dtype.kind not in "iuf" or (pids != np.trunc(pids)).any():
        raise ValueError("pids must be integers")
    if ((pids < 0) | (pids > np.iinfo(np.int32).max)).any():
        raise ValueError("pids must be non-negative and fit in int32")
    pids = pids.astype(np.int32)
    sc = spark.sparkContext
    splits = sc.defaultParallelism
    order = np.argsort(pids, kind="stable")  # rows by (pid, id)
    home = pids[order] % splits
    blocks = []
    for p in range(splits):
        rows = order[home == p]
        blocks.append((rows, pids[rows], points[rows]))
    return sc.parallelize(blocks, splits)
