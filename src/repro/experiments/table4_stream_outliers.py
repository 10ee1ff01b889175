"""T4 (paper Figure 5): streaming k-center with z outliers —
CORESETOUTLIERS (space mu*(k+z), mu in {1,2,4,8,16}) vs BASEOUTLIERS [27]
(space ~ m*k*z, m in {1,2,4,8,16}); approximation ratio and throughput
versus space. Paper parameters: k = 20, z = 200, points shuffled before
streaming.
"""
from __future__ import annotations

import pandas as pd

from repro.core.metric import radius
from repro.experiments.common import add_ratio, make_datasets, shuffled
from repro.streaming.base_outliers import base_stream_outliers
from repro.streaming.coreset_outliers import coreset_stream_outliers


def run(
    *,
    n: int = 20_000,
    k: int = 20,
    z: int = 200,
    mus=(1, 2, 4, 8, 16),
    ms=(1, 2, 4, 8, 16),
    names=("higgs", "power", "wiki"),
    repeats: int = 1,
    eps_hat: float = 0.05,
    seed: int = 0,
) -> pd.DataFrame:
    data = make_datasets(n, z=z, names=names, seed=seed)
    rows = []
    for name in names:
        X, _ = data[name]
        for rep in range(repeats):
            Xs = shuffled(X, seed + 7 * rep)
            for mu in mus:
                r = coreset_stream_outliers(Xs, k, z, mu=mu, eps_hat=eps_hat)
                rows.append(
                    {
                        "dataset": name,
                        "algo": "CORESETOUTLIERS",
                        "param": mu,
                        "rep": rep,
                        "space": r.space,
                        "radius": radius(Xs, r.centers, z),
                        "throughput": r.throughput,
                    }
                )
            for m in ms:
                r = base_stream_outliers(Xs, k, z, m=m)
                rows.append(
                    {
                        "dataset": name,
                        "algo": "BASEOUTLIERS",
                        "param": m,
                        "rep": rep,
                        "space": r.space,
                        "radius": radius(Xs, r.centers, z),
                        "throughput": r.throughput,
                    }
                )
    df = add_ratio(pd.DataFrame(rows), ["dataset"])
    return (
        df.groupby(["dataset", "algo", "param"], as_index=False)
        .agg(
            space=("space", "mean"),
            radius=("radius", "mean"),
            ratio=("ratio", "mean"),
            throughput=("throughput", "mean"),
        )
        .sort_values(["dataset", "algo", "param"])
        .reset_index(drop=True)
    )
