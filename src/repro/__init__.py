"""Reproduction of Ceccarello, Pietracaprina, Pucci — "Solving k-center
Clustering (with Outliers) in MapReduce and Streaming, almost as Accurately
as Sequentially" (VLDB 2019).

Subpackages:
``core``        sequential primitives (GMM, OutliersCluster, radius search)
``data``        synthetic dataset substitutes + paper's data procedures
``mapreduce``   the 2-round Spark algorithms (Sections 3.1/3.2)
``streaming``   the 1-/2-pass algorithms and streaming baselines (Section 4)
``experiments`` the driver reproducing the rows of Figures 2-8 (T1-T7)
"""
