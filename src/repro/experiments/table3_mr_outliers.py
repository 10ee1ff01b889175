"""T3 (paper Figure 4): MapReduce k-center with z outliers — deterministic
(coresets of size mu*(k+z), adversarial partitioning placing all outliers
in one subset) versus randomized (coresets of size mu*(k + 6z/ell), random
partitioning), mu in {1,2,4,8}, fixed parallelism ell = 16; approximation
ratio and running time. Deterministic mu = 1 is the MALKOMESETAL [26]
baseline. Paper parameters: k = 20, z = 200.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.common import add_ratio, make_datasets
from repro.mapreduce.kcenter_outliers import experiment_tau, mr_kcenter_outliers


def run(
    spark: SparkSession,
    *,
    n: int = 20_000,
    k: int = 20,
    z: int = 200,
    ell: int = 16,
    mus=(1, 2, 4, 8),
    names=("higgs", "power", "wiki"),
    repeats: int = 1,
    eps_hat: float = 0.05,
    seed: int = 0,
) -> pd.DataFrame:
    data = make_datasets(n, z=z, names=names, seed=seed)
    rows = []
    for name in names:
        X, mask = data[name]
        for rep in range(repeats):
            for mu in mus:
                for variant in ("deterministic", "randomized"):
                    randomized = variant == "randomized"
                    tau = experiment_tau(mu, k, z, ell, randomized=randomized)
                    res = mr_kcenter_outliers(
                        spark,
                        X,
                        k,
                        z,
                        ell,
                        tau=tau,
                        eps_hat=eps_hat,
                        randomized=randomized,
                        partition_mode=(
                            "random" if randomized else "adversarial"
                        ),
                        outlier_mask=None if randomized else mask,
                        seed=seed + 31 * rep,
                    )
                    rows.append(
                        {
                            "dataset": name,
                            "variant": variant,
                            "mu": mu,
                            "rep": rep,
                            "tau": tau,
                            "coreset_size": res.coreset_size,
                            "radius": res.radius,
                            "t_coreset": res.t_coreset,
                            "t_cluster": res.t_cluster,
                            "t_total": res.t_coreset + res.t_cluster,
                        }
                    )
    df = add_ratio(pd.DataFrame(rows), ["dataset"])
    return (
        df.groupby(["dataset", "variant", "mu"], as_index=False)
        .agg(
            tau=("tau", "first"),
            coreset_size=("coreset_size", "mean"),
            radius=("radius", "mean"),
            ratio=("ratio", "mean"),
            t_coreset=("t_coreset", "mean"),
            t_cluster=("t_cluster", "mean"),
            t_total=("t_total", "mean"),
        )
        .sort_values(["dataset", "variant", "mu"])
        .reset_index(drop=True)
    )
