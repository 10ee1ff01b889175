"""T2 (paper Figure 3): streaming k-center without outliers —
CORESETSTREAM (space mu*k, mu in {1,2,4,8,16}) vs BASESTREAM [27]
(space m*k, m in {1,2,4,8,16}); approximation ratio and throughput
versus space.
"""
from __future__ import annotations

import pandas as pd

from repro.core.metric import radius
from repro.experiments.common import add_ratio, make_datasets, shuffled
from repro.experiments.table1_mr_kcenter import PAPER_K
from repro.streaming.base_stream import base_stream_kcenter
from repro.streaming.coreset_stream import coreset_stream_kcenter


def run(
    *,
    n: int = 20_000,
    k_map: dict[str, int] | None = None,
    mus=(1, 2, 4, 8, 16),
    ms=(1, 2, 4, 8, 16),
    names=("higgs", "power", "wiki"),
    repeats: int = 1,
    seed: int = 0,
) -> pd.DataFrame:
    k_map = dict(PAPER_K if k_map is None else k_map)
    data = make_datasets(n, z=0, names=names, seed=seed)
    rows = []
    for name in names:
        X, _ = data[name]
        k = k_map[name]
        for rep in range(repeats):
            Xs = shuffled(X, seed + 7 * rep)
            for mu in mus:
                r = coreset_stream_kcenter(Xs, k, mu=mu)
                rows.append(
                    {
                        "dataset": name,
                        "algo": "CORESETSTREAM",
                        "param": mu,
                        "rep": rep,
                        "space": r.space,
                        "radius": radius(Xs, r.centers, 0),
                        "throughput": r.throughput,
                    }
                )
            for m in ms:
                r = base_stream_kcenter(Xs, k, m=m)
                rows.append(
                    {
                        "dataset": name,
                        "algo": "BASESTREAM",
                        "param": m,
                        "rep": rep,
                        "space": r.space,
                        "radius": radius(Xs, r.centers, 0),
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
