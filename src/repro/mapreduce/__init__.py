"""The paper's 2-round MapReduce algorithms on Spark.

``partitioning``      round-1 partition-id assignment (contiguous /
                      round-robin / random / adversarial, Section 5.2).
``kcenter``           Section 3.1 — (2+eps) k-center.
``kcenter_outliers``  Section 3.2 / 3.2.1 — (3+eps) k-center with z
                      outliers, deterministic and randomized; with ell=1
                      this is the paper's improved sequential algorithm.
``evaluate``          distributed evaluation of the (z-outlier) clustering
                      radius of a solution over the full input.
``worker``            ``lean_worker``, called first in every Spark task
                      function: stops each task from re-reading the
                      workers' zip archives.
"""
from repro.mapreduce import evaluate, kcenter, kcenter_outliers, partitioning  # noqa: F401
