"""T3 / Figure 4: MR k-center with z outliers — deterministic (adversarial
partitioning) vs randomized, ratio and running time vs mu, ell = 16.
Run: python jobs/table3_mr_outliers.py [--n N] [--k K] [--z Z] [--ell L]
"""
import argparse

from repro.experiments import table3_mr_outliers as t3
from repro.experiments.common import print_table, save_csv
from repro.experiments.session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40_000)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--z", type=int, default=100)
    ap.add_argument("--ell", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spark = get_session("table3-mr-outliers")
    try:
        df = t3.run(
            spark, n=args.n, k=args.k, z=args.z, ell=args.ell,
            repeats=args.repeats, seed=args.seed,
        )
    finally:
        spark.stop()
    print_table(df, "T3 / Figure 4 — MR outliers: det vs randomized")
    print("saved:", save_csv(df, "table3_mr_outliers"))


if __name__ == "__main__":
    main()
