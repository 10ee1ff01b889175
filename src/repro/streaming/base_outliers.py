"""BASEOUTLIERS — the McCutchen–Khuller [27] (4+eps) streaming algorithm
for k-center with z outliers, the Figure 5 baseline.

Per [27], each instance runs a guess-based algorithm with O(k*z) working
memory for its radius guess r:

* a point within 4r of an existing center is *covered* and dropped;
* otherwise it is stored as a *free* point;
* whenever some free point q has >= z+1 free points inside its 2r-ball, q
  must belong to a real cluster: q is promoted to a center and every free
  point within 4r of it is dropped;
* if the instance would need more than k centers, or holds more free
  points than k*z + z (more than z of them can be shown non-outliers),
  the guess fails: r doubles and the stored summary (centers + free
  points) is re-processed under the new guess.

At end of stream the <= k centers cover all but <= k*z + z stored free
points; the final solution completes the centers by running the offline
[16] algorithm (``charikar``) over the instance's stored points. The
experiments run m parallel instances on a geometric guess ladder (space
m*k*z) and report the instance with the smallest surviving guess,
mirroring BASESTREAM.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.metric import cdist
from repro.core.result import Result
from repro.core.search import charikar
from repro.streaming import common
from repro.streaming.common import guess_ladder_stream


@dataclass
class _OutlierInstance:
    k: int
    z: int
    r: float
    centers: list[np.ndarray] = field(default_factory=list)
    free: list[np.ndarray] = field(default_factory=list)

    @property
    def free_cap(self) -> int:
        return self.k * self.z + self.z

    def process(self, points: np.ndarray) -> None:
        """Read ``points`` in order: a point within 4r of a center is
        covered and dropped, any other point is stored as free and
        consolidated on its own (``_scan``)."""
        self._scan(points, self._consolidate)

    def _scan(self, P: np.ndarray, then: Callable[[], None]) -> None:
        """Read ``P`` in order with ``common.scan`` at 4r: the covered rows
        are dropped, and each other row is stored as free, then ``then()``
        runs before the scan goes on against the new centers."""
        i, n = 0, len(P)
        while i < n:
            i, _ = common.scan(P, i, np.asarray(self.centers), 4.0 * self.r)
            if i == n:
                return
            self.free.append(P[i])
            i += 1
            then()

    def _consolidate(self) -> None:
        """Promote dense free points to centers; escalate the guess when
        the instance runs out of center or free-point budget."""
        while True:
            self._promote_dense()
            if len(self.centers) <= self.k and len(self.free) <= self.free_cap:
                return
            # Guess failed: double r and re-process the stored summary,
            # promoting after each point it stores.
            stored = np.asarray(self.centers + self.free)
            self.r *= 2.0
            self.centers, self.free = [], []
            self._scan(stored, self._promote_dense)

    def _promote_dense(self) -> None:
        """While some free point has >= z+1 free points (itself included)
        within 2r and a center slot remains, promote it."""
        while self.free and len(self.centers) < self.k:
            F = np.asarray(self.free)
            D = cdist(F, F)
            support = (D <= 2.0 * self.r).sum(axis=1)
            q = int(support.argmax())
            if support[q] < self.z + 1:
                return
            center = F[q]
            self.centers.append(center)
            dc = cdist(F, center[None, :])[:, 0]
            self.free = [F[i] for i in np.flatnonzero(dc > 4.0 * self.r)]

    def stored_points(self) -> np.ndarray:
        pts = self.centers + self.free
        return np.asarray(pts) if pts else np.empty((0, 0))


def _complete(best: _OutlierInstance, k: int, z: int) -> np.ndarray:
    """Offline completion on the O(k*z) stored points: [16] yields the
    final k centers."""
    stored = best.stored_points()
    return charikar(stored, k, min(z, max(0, len(stored) - 1))).centers


def base_stream_outliers(
    points, k: int, z: int, *, m: int = 1
) -> Result:
    """Run BASEOUTLIERS with ``m`` parallel instances (space m*(k*z+z+k)).

    Seeding mirrors BASESTREAM: buffer until k+z+1 distinct points fix the
    distance scale, then start instances on the geometric ladder g * 2^(i/m).
    """
    if z < 1:
        raise ValueError("z must be >= 1 (use base_stream_kcenter for z=0)")
    return guess_ladder_stream(
        points, k, m,
        seed_size=k + z + 1,
        new_instance=lambda r: _OutlierInstance(k=k, z=z, r=r),
        finish=lambda best: _complete(best, k, z),
        space=m * (k * z + z + k),
    )
