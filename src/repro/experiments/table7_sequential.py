"""T7 (paper Figure 8): sequential algorithms for k-center with z outliers
on a sample of each dataset — running time and returned radius of

* CHARIKARETAL [16]: the O(k|S|^2 log|S|) state of the art,
* MALKOMESETAL [26]: our coreset pipeline with mu = 1 (tau = k + z),
* OURS(mu): the paper's improved sequential algorithm, mu in {2, 4, 8}.

Paper setup: 10,000-point samples, 200 injected outliers, k = 20, z = 200,
input shuffled before each run. The default sample here is smaller so the
quadratic baseline stays bench-feasible; the job accepts --n 10000.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.metric import radius
from repro.core.search import charikar
from repro.experiments.common import add_ratio, make_datasets, shuffled
from repro.mapreduce.kcenter_outliers import sequential_coreset_outliers


def run(
    *,
    n: int = 4_000,
    k: int = 20,
    z: int = 200,
    mus=(1, 2, 4, 8),
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
            t0 = time.perf_counter()
            ck = charikar(Xs, k, z)
            t1 = time.perf_counter()
            rows.append(
                {
                    "dataset": name,
                    "algo": "CHARIKARETAL",
                    "mu": 0,
                    "rep": rep,
                    "time_s": t1 - t0,
                    "radius": radius(Xs, Xs[ck.cluster.centers_idx], z),
                }
            )
            for mu in mus:
                tau = mu * (k + z)
                centers, _, t_cs, t_cl = sequential_coreset_outliers(
                    Xs, k, z, tau=tau, eps_hat=eps_hat
                )
                algo = "MALKOMESETAL" if mu == 1 else f"OURS(mu={mu})"
                rows.append(
                    {
                        "dataset": name,
                        "algo": algo,
                        "mu": mu,
                        "rep": rep,
                        "time_s": t_cs + t_cl,
                        "radius": radius(Xs, centers, z),
                    }
                )
    df = add_ratio(pd.DataFrame(rows), ["dataset"])
    return (
        df.groupby(["dataset", "algo", "mu"], as_index=False)
        .agg(
            time_s=("time_s", "mean"),
            radius=("radius", "mean"),
            ratio=("ratio", "mean"),
        )
        .sort_values(["dataset", "mu"])
        .reset_index(drop=True)
    )
