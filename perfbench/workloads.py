"""The benchmark's workloads and its own seeded input generator.

Inputs are generated here, not by ``repro.data``, so that retuning the
program's generators cannot silently change what the benchmark measures.
Every generated array is fingerprinted and the fingerprint is stamped on
each record.

The data are "higgs-like": a d=7 Gaussian mixture whose cluster layout is
fixed by ``LAYOUT_SEED`` (a parameter of the workloads, like n or k), a
Student-t(3) noise fraction, and z outliers injected as in Section 5.2 of
the paper (at 100 r_MEB from the MEB center, pairwise >= 10 r_MEB apart).
The ``--seed`` argument draws the sample: memberships, Gaussian offsets,
noise, outlier directions and the stream order. The fixed layout keeps the
z-outlier radius a property of the workload rather than of one seed.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

D = 7
K = 10
Z = 100
EPS_HAT = 0.05

LAYOUT_SEED = 20190701
N_CLUSTERS = 40
BOX = 12.0
CLUSTER_STD = 1.0
NOISE_FRAC = 0.05
NOISE_DOF = 3.0
NOISE_SCALE = 0.5
OUTLIER_DIST = 100.0
OUTLIER_SEP = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "mr" (randomized MapReduce, needs Spark) or "stream"
    n: int  # inlier points; the z injected outliers come on top
    # A run cycles its calls over this many inputs drawn from its seed and
    # calls each at least once. The cost of one input varies with the
    # sample (the stream's doubling ladder starts at half the closest gap
    # among its first tau+1 points, so the coreset size it settles at
    # varies up to 2x between samples); the median over many inputs keeps
    # that variation out of the run's figures.
    inputs: int
    ell: int = 1
    mu: float = 1.0

    @property
    def spark(self) -> bool:
        return self.kind == "mr"

    def tau(self) -> int:
        """Per-partition (MR) or stream (CORESETOUTLIERS) coreset budget:
        mu*(k + 6z/ell) for randomized MR, as ``experiment_tau`` computes
        it, and mu*(k+z) for the stream."""
        if self.kind == "mr":
            return max(K + 1, int(np.ceil(self.mu * (K + 6.0 * Z / self.ell))))
        return int(np.ceil(self.mu * (K + Z)))


# Sizes keep one call at 1-5 s on 4 vCPUs: a run sets up three times and
# then times at least one call per input, and the runs of every gated
# workload share one time budget. That budget leaves mr-large-n out of
# BENCHMARK.json (see README.md); it runs by name and under --workload all.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mr-large-n",
            "many points, small coreset: numpy-to-Spark conversion, shuffle, "
            "round-1 GMM with few centers and the distributed radius dominate",
            "mr", n=80_000, inputs=6, ell=4, mu=1,
        ),
        Workload(
            "mr-big-coreset",
            "few points, |T|=2720 coreset: the round-2 radius search over a "
            "|T|^2 matrix far larger than cache is the largest layer",
            "mr", n=40_000, inputs=6, ell=8, mu=4,
        ),
        Workload(
            "stream-outliers",
            "CORESETOUTLIERS without Spark: the per-point doubling update and "
            "merge rules dominate; the search runs on a small weighted set",
            "stream", n=25_000, inputs=32, mu=8,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second (self-check)."""
    return replace(w, n=2_000 if w.kind == "mr" else 1_000, inputs=2)


def _layout() -> np.ndarray:
    g = np.random.default_rng(LAYOUT_SEED)
    return g.uniform(-BOX, BOX, (N_CLUSTERS, D))


def _inject_outliers(X: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """Section 5.2: Z points at OUTLIER_DIST * r_MEB from the MEB center in
    random directions, rejection-sampled to be >= OUTLIER_SEP * r_MEB apart.
    The MEB is approximated by the centroid and its covering radius."""
    c = X.mean(axis=0)
    r = float(np.sqrt(((X - c) ** 2).sum(axis=1)).max())
    out = np.empty((Z, D))
    m = 0
    while m < Z:
        v = g.standard_normal(D)
        p = c + OUTLIER_DIST * r * v / np.linalg.norm(v)
        if m == 0 or np.sqrt(((out[:m] - p) ** 2).sum(axis=1)).min() >= (
            OUTLIER_SEP * r
        ):
            out[m] = p
            m += 1
    return out


def generate(
    w: Workload, seed: int, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(points, is_outlier)``, input ``index`` of workload ``w``
    for ``seed``: ``w.n`` mixture points plus Z injected outliers, in a
    seeded random order (the order is the stream order and the MR ids)."""
    g = np.random.default_rng([seed, index])
    centers = _layout()
    labels = g.integers(0, N_CLUSTERS, w.n)
    X = centers[labels] + g.standard_normal((w.n, D)) * CLUSTER_STD
    n_noise = int(NOISE_FRAC * w.n)
    idx = g.choice(w.n, n_noise, replace=False)
    X[idx] += g.standard_t(NOISE_DOF, (n_noise, D)) * NOISE_SCALE
    pts = np.vstack([X, _inject_outliers(X, g)])
    mask = np.zeros(len(pts), dtype=bool)
    mask[w.n:] = True
    order = g.permutation(len(pts))
    return np.ascontiguousarray(pts[order]), mask[order]


def fingerprint(a: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and bytes (first 16 hex digits)."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]
