"""Core sequential primitives of the paper.

``metric``            Euclidean distances, (z-outlier) clustering radii and
                      the input check every entry point makes.
``gmm``               Gonzalez's farthest-first traversal, run incrementally
                      for tau centers: the weighted round-1 coreset of
                      both MapReduce algorithms.
``outliers_cluster``  Algorithm 1 of the paper: the weighted variant of the
                      Charikar et al. greedy for k-center with outliers.
``search``            The minimum-feasible-radius search: one bisection over
                      a geometric (1+delta) grid or over the exact pairwise
                      distances, and the CHARIKARETAL sequential baseline
                      built on it.
``result``            ``Result``, the record every algorithm entry returns.
"""
from repro.core import gmm, metric, outliers_cluster, search  # noqa: F401
