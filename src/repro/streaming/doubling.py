"""The paper's weighted doubling algorithm (Section 4).

A novel weighted variant of the doubling algorithm of Charikar et al. [15]:
maintain a weighted center set T of at most ``tau`` points and a lower
bound phi on r*_tau(S), preserving the invariants

  (a) |T| <= tau
  (b) every pair of centers is > 4*phi apart
  (c) every processed point is within 8*phi of its proxy center
  (d) w_t = number of processed points whose proxy is t
  (e) phi <= r*_tau(S)

Processing: T is seeded with the first tau+1 points (then merged down);
afterwards, a point within 8*phi of T increments its nearest center's
weight (*update rule*), a farther point becomes a new center, and whenever
|T| exceeds tau the *merge rule* doubles phi and greedily merges centers
closer than 4*phi until invariant (a) holds again.

The update rule leaves T unchanged, so the stream is read by
``common.scan`` at threshold 8*phi: the rows before the first farther one
add their counts to T's weights, that row alone becomes a center, and the
scan restarts after it. T's squared norms are kept next to its points, so
the scan computes no center norm.
"""
from __future__ import annotations

import numpy as np

from repro.core.metric import as_points, cdist, min_gap, sq_norms
from repro.streaming.common import greedy_cover, scan


class DoublingCoreset:
    """Streaming weighted coreset of at most ``tau`` centers.

    Feed points with :meth:`process` (or :meth:`update` for one point);
    read the coreset with :attr:`points` / :attr:`weights` / :attr:`phi`.
    ``peak_size`` records the largest |T| ever held (the working-memory
    claim: never more than tau + 1); ``doublings`` counts the merge rule's
    phi doublings.
    """

    def __init__(self, tau: int, dim: int):
        if tau < 1:
            raise ValueError("tau must be >= 1")
        self.tau = tau
        self.dim = dim
        # Preallocated storage for tau+1 centers (the transient overshoot).
        self._pts = np.empty((tau + 1, dim), dtype=np.float64)
        self._w = np.zeros(tau + 1, dtype=np.int64)
        self._sq = np.empty(tau + 1)  # sq_norms of the centers
        self._m = 0  # current |T|
        self.phi = 0.0
        self.n_processed = 0
        self.peak_size = 0
        self.doublings = 0
        self._initialized = False

    # -- views -------------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._m]

    @property
    def weights(self) -> np.ndarray:
        return self._w[: self._m]

    @property
    def size(self) -> int:
        return self._m

    # -- internals ---------------------------------------------------------

    def _append(self, p: np.ndarray, w: int) -> None:
        self._pts[self._m] = p
        self._w[self._m] = w
        self._sq[self._m] = sq_norms(self._pts[self._m : self._m + 1])[0]
        self._m += 1
        self.peak_size = max(self.peak_size, self._m)

    def _merge_rule(self) -> None:
        """phi <- 2*phi, then greedily merge centers within 4*phi, repeated
        until |T| <= tau (each repetition doubles phi again).

        Each repetition reads one D = cdist(T, T). While phi is 0 (at
        initialization, or after a seed of coincident points) it is
        bootstrapped to half the closest gap in D, a lower bound on r*_tau.
        A gap of 0 means duplicates: they are folded first (a fold within
        4*phi needs phi > 0), and phi stays 0 if that alone restores |T| <=
        tau. That fold reads the gap's D, so it drops a center: the loop ends.
        """
        while True:
            T = self._pts[: self._m]
            D = cdist(T, T)
            if self.phi == 0.0:
                gap = min_gap(D)
                if gap == 0.0:
                    self._fold(D, 0.0)
                    if self._m <= self.tau:
                        return
                    continue
                self.phi = gap / 2.0
            self.phi *= 2.0
            self.doublings += 1
            self._fold(D, 4.0 * self.phi)
            if self._m <= self.tau:
                return

    def _fold(self, D: np.ndarray, thresh: float) -> None:
        """Keep the greedy cover of T at ``thresh`` (``greedy_cover`` over
        ``D = cdist(T, T)``); each dropped center's weight goes to its
        nearest kept one (the proxy reassignment). ``thresh = 4*phi``
        re-establishes invariant (b); ``thresh = 0`` folds duplicates while
        phi is still 0."""
        m = self._m
        owner = greedy_cover(D, thresh)
        keep = np.flatnonzero(owner == np.arange(m))
        w = np.bincount(owner, weights=self._w[:m], minlength=m)
        self._pts[: len(keep)] = self._pts[keep]
        self._w[: len(keep)] = w[keep]
        self._sq[: len(keep)] = self._sq[keep]
        self._m = len(keep)

    def _seed(self) -> None:
        """T holds the first tau+1 points, weight 1 each: the merge rule
        fixes phi and merges down to at most tau centers. With phi at half
        the closest seed gap, the doubled phi puts that pair within 4*phi,
        so it merges and (a)-(b) hold before the next point, the paper's
        end-of-init step."""
        self._initialized = True
        self._merge_rule()

    # -- public API --------------------------------------------------------

    def update(self, point) -> None:
        """Process one stream point: ``process`` of one row."""
        self.process(np.asarray(point, dtype=np.float64).reshape(1, -1))

    def process(self, points) -> "DoublingCoreset":
        """Process ``points``, one row per stream point, in order.

        The first tau+1 points fill the buffer by slice and seed T. After
        that, ``common.scan`` reads the rows against T at 8*phi, with the
        rows' squared norms computed once per call and T's cached: the
        rows it passes take the update rule together, the first farther
        row becomes a center, the merge rule runs if |T| > tau, and the
        scan restarts after that row against the new T.
        """
        P = as_points(points)
        if P.shape[1] != self.dim:
            raise ValueError(f"point dim {P.shape[1]} != {self.dim}")
        n, i = len(P), 0
        norms = sq_norms(P)
        if not self._initialized:
            i = min(n, self.tau + 1 - self._m)
            self._pts[self._m : self._m + i] = P[:i]
            self._w[self._m : self._m + i] = 1
            self._sq[self._m : self._m + i] = norms[:i]
            self._m += i
            self.n_processed += i
            self.peak_size = max(self.peak_size, self._m)
            if self._m == self.tau + 1:
                self._seed()
        while i < n:
            m = self._m
            j, counts = scan(P, i, self._pts[:m], 8.0 * self.phi, norms,
                             self._sq[:m])
            self._w[:m] += counts
            self.n_processed += j - i
            if j == n:
                break
            self._append(P[j], 1)  # row j opens a center
            self.n_processed += 1
            i = j + 1
            if self._m > self.tau:
                self._merge_rule()
        return self

    def finalize(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Return ``(T, weights, phi)``. If the stream ended before tau+1
        points arrived, the buffered points (weight 1 each, phi = 0) are the
        exact coreset."""
        return self.points.copy(), self.weights.copy(), self.phi
