"""T1 (paper Figure 2): approximation ratio of the MapReduce k-center
algorithm using coresets of size tau = mu*k, for mu in {1,2,4,8} and
parallelism ell in {2,4,8,16}; mu = 1 is the MALKOMESETAL [26] baseline.

Paper datasets/parameters: Higgs k=50, Power k=100, Wiki k=60.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.common import add_ratio, make_datasets, shuffled
from repro.mapreduce.kcenter import mr_kcenter

PAPER_K = {"higgs": 50, "power": 100, "wiki": 60}


def run(
    spark: SparkSession,
    *,
    n: int = 20_000,
    k_map: dict[str, int] | None = None,
    mus=(1, 2, 4, 8),
    ells=(2, 4, 8, 16),
    names=("higgs", "power", "wiki"),
    repeats: int = 1,
    seed: int = 0,
) -> pd.DataFrame:
    """Sweep (dataset, ell, mu); returns one row per cell per repeat with
    the measured radius and the empirical ratio within each (dataset, ell)
    group — the grouping of the paper's bar chart."""
    k_map = dict(PAPER_K if k_map is None else k_map)
    data = make_datasets(n, z=0, names=names, seed=seed)
    rows = []
    for name in names:
        X, _ = data[name]
        k = k_map[name]
        for rep in range(repeats):
            Xs = shuffled(X, seed + 7 * rep)
            for ell in ells:
                for mu in mus:
                    res = mr_kcenter(spark, Xs, k, ell, tau=mu * k)
                    rows.append(
                        {
                            "dataset": name,
                            "ell": ell,
                            "mu": mu,
                            "rep": rep,
                            "tau": mu * k,
                            "coreset_size": res.coreset_size,
                            "radius": res.radius,
                            "t_coreset": res.t_coreset,
                            "t_final": res.t_final,
                        }
                    )
    df = pd.DataFrame(rows)
    # Ratio normalized per dataset (best radius ever found for that dataset
    # across the whole sweep), as in the paper's plots.
    df = add_ratio(df, ["dataset"])
    return (
        df.groupby(["dataset", "ell", "mu"], as_index=False)
        .agg(
            tau=("tau", "first"),
            coreset_size=("coreset_size", "mean"),
            radius=("radius", "mean"),
            ratio=("ratio", "mean"),
            t_coreset=("t_coreset", "mean"),
            t_final=("t_final", "mean"),
        )
        .sort_values(["dataset", "ell", "mu"])
        .reset_index(drop=True)
    )
