"""Streaming algorithms (Section 4 + the Section 5 streaming baselines).

All streaming algorithms are single-processor by definition; the paper
itself evaluated them with "a sequential simulation", and so do we: each
algorithm consumes an iterator of points on the driver with a bounded
working set.

``doubling``          the paper's weighted variant of the Charikar et al.
                      doubling algorithm — the coreset construction
                      maintaining invariants (a)-(e).
``coreset_stream``    the pass both coreset streams make, and CORESETSTREAM:
                      k-center without outliers (tau = mu*k, then GMM).
``coreset_outliers``  CORESETOUTLIERS: k-center with z outliers (weighted
                      coreset of size tau = mu*(k+z), then OutliersCluster
                      under the minimum-radius search).
``base_stream``       BASESTREAM [27]: (2+eps) guess-based streaming
                      k-center, m parallel instances of k centers each.
``base_outliers``     BASEOUTLIERS [27]: (4+eps) guess-based streaming
                      k-center with outliers, m instances of O(k*z) space.
``common``            the block scan, the greedy cover and the baselines'
                      shared seeding and guess ladder.
"""
from repro.streaming import (  # noqa: F401
    base_outliers,
    base_stream,
    common,
    coreset_outliers,
    coreset_stream,
    doubling,
)
