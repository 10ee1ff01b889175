"""Gonzalez's GMM (farthest-first traversal), run incrementally: the
round-1 coreset construction of every algorithm in the paper.

GMM is the workhorse of the whole paper: it is a sequential 2-approximation
for k-center (Lemma 1) and, crucially, it is *incremental* — the set of the
first j centers is a prefix of the set of the first j+1 — which is what lets
the paper's round-1 reducers grow a coreset until a stopping condition is
met without knowing the doubling dimension D.

``gmm(X, tau)`` selects ``tau`` centers: the experiments' rule (Section 5
fixes tau = mu*k or mu*(k+z)), and the only one the package runs. The
theory's rule (Sections 3.1 / 3.2: select past k, k+z or k+z' centers
until r_{T^j}(X) <= (eps/2) * r_{T^k}(X)) gives a size that can be read
off one full run's ``radii``, since every shorter run is a prefix of it.

The result carries *proxy weights*: each selected center counts the input
points whose closest center (proxy, in the paper's terminology) it is.
The k-center MR algorithm ignores the weights; the outliers MR/Streaming
algorithms require them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import as_points


@dataclass(frozen=True)
class GmmResult:
    """Output of an incremental GMM run on a point set ``X``.

    ``centers_idx``  indices into X of the selected centers, in selection
                     order (so any prefix is itself a valid GMM run).
    ``assign``       assign[i] = position in ``centers_idx`` of the closest
                     selected center of X[i] (the proxy function p).
    ``dist``         dist[i] = d(X[i], T) for the final center set T.
    ``radii``        radii[j] = r_{T^{j+1}}(X), the radius of X w.r.t. the
                     first j+1 centers — non-increasing by construction.
    """

    centers_idx: np.ndarray
    assign: np.ndarray
    dist: np.ndarray
    radii: np.ndarray

    @property
    def tau(self) -> int:
        return len(self.centers_idx)

    def weights(self) -> np.ndarray:
        """Proxy weights: w[t] = number of points assigned to center t."""
        return np.bincount(self.assign, minlength=self.tau).astype(np.int64)

    def centers(self, X) -> np.ndarray:
        return as_points(X)[self.centers_idx]


def gmm(X, tau: int, *, first: int = 0) -> GmmResult:
    """Run farthest-first traversal on ``X`` for ``tau`` centers (all of
    X's distinct points if it has fewer).

    ``first`` is the (arbitrary, per Gonzalez) initial center index; the
    experiments shuffle the input between runs, which is equivalent to
    randomizing ``first``.
    """
    X = as_points(X)
    n = len(X)
    if n == 0:
        raise ValueError("empty point set")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    tau = min(tau, n)
    if not 0 <= first < n:
        raise ValueError(f"first index {first} out of range for n={n}")

    # d(X, X[c]) is cdist(X, X[c:c+1]) evaluated with the same operations
    # in the same order, bit for bit: the row norms are computed once
    # instead of per center, and each center costs one GEMV into reused
    # buffers.
    sq = (X * X).sum(axis=1)
    ab = np.empty(n, dtype=np.float64)
    nd = np.empty(n, dtype=np.float64)
    closer = np.empty(n, dtype=bool)

    def dist_to(c: int) -> np.ndarray:
        np.matmul(X, X[c], out=ab)
        np.multiply(ab, 2.0, out=ab)
        np.add(sq, sq[c], out=nd)
        np.subtract(nd, ab, out=nd)
        np.clip(nd, 0.0, None, out=nd)
        return np.sqrt(nd, out=nd)

    centers = np.empty(tau, dtype=np.int64)
    centers[0] = first
    dist = dist_to(first).copy()
    assign = np.zeros(n, dtype=np.int64)
    radii = np.empty(tau, dtype=np.float64)
    radii[0] = dist.max(initial=0.0)
    j = 1
    while j < tau:
        nxt = int(dist.argmax())
        if dist[nxt] == 0.0:
            # All points coincide with an existing center: the coreset is
            # the full distinct point set, nothing more to select.
            break
        centers[j] = nxt
        dist_to(nxt)
        np.less(nd, dist, out=closer)
        np.copyto(dist, nd, where=closer)
        assign[closer] = j
        radii[j] = dist.max(initial=0.0)
        j += 1
    return GmmResult(
        centers_idx=centers[:j].copy(),
        assign=assign,
        dist=dist,
        radii=radii[:j].copy(),
    )
