"""BASESTREAM — the McCutchen–Khuller [27] (2+eps) streaming algorithm for
k-center without outliers, the Figure 3 baseline.

[27] refines the guess-based doubling scheme of Charikar et al.: run a
bank of parallel instances whose radius guesses are staggered geometrically
so that some instance's guess is always within a (small) factor of the
optimum; each instance keeps at most k centers and, when its guess fails
(a (k+1)-th center appears), doubles its guess and re-clusters its own
centers. Space is m*k for m instances; the approximation approaches 2 as m
grows (the paper's m sweep {1, 2, 4, 8, 16} trades space for accuracy).

At end of stream each instance i holds <= k centers covering every
processed point within 2 * r_i of them; the algorithm reports the centers
of the instance with the smallest current guess, the same selection rule
as [27].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metric import cdist, finite_points
from repro.streaming import common
from repro.streaming.common import StreamResult, guess_ladder_stream


@dataclass
class _Instance:
    """One guess-based instance: <= k centers valid for the current guess r
    (every processed point is within 2r of some center)."""

    k: int
    r: float
    centers: list[np.ndarray] = field(default_factory=list)

    def process(self, points: np.ndarray) -> None:
        """Read ``points`` in order. A point within 2r of a center is
        covered; any other point opens a center, and while there are more
        than k the guess doubles and the centers are re-clustered. Covered
        points are passed by ``common.scan``."""
        i, n = 0, len(points)
        while i < n:
            i, _ = common.scan(points, i, np.asarray(self.centers),
                               2.0 * self.r)
            if i == n:
                return
            self.centers.append(points[i])
            i += 1
            while len(self.centers) > self.k:
                self.r *= 2.0
                self._recluster()

    def _recluster(self) -> None:
        """Keep the greedy cover of the centers at 2r: each dropped center is
        within 2r of a kept one, so coverage holds at the doubled radius."""
        C = np.asarray(self.centers)
        owner = common.greedy_cover(cdist(C, C), 2.0 * self.r)
        self.centers = [c for i, c in enumerate(self.centers) if owner[i] == i]


def base_stream_kcenter(points, k: int, *, m: int = 1) -> StreamResult:
    """Run BASESTREAM with ``m`` parallel instances (space m*k).

    Instances are seeded after the first k+1 distinct points with guesses
    g * 2^(i/m), i in [0, m) (see ``guess_ladder_stream``), so larger m
    gives a finer guess and a tighter radius.
    """
    return guess_ladder_stream(
        finite_points(points), k, m,
        seed_size=k + 1,
        new_instance=lambda r: _Instance(k=k, r=r),
        finish=lambda best: np.asarray(best.centers),
        space=m * k,
    )
