"""T1 / Figure 2: MR k-center approximation ratio vs coreset size (mu) and
parallelism (ell). Run: python jobs/table1_mr_kcenter.py [--n N] [--repeats R]
"""
import argparse

from repro.experiments import table1_mr_kcenter as t1
from repro.experiments.common import print_table, save_csv
from repro.experiments.session import get_session


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spark = get_session("table1-mr-kcenter")
    try:
        df = t1.run(spark, n=args.n, repeats=args.repeats, seed=args.seed)
    finally:
        spark.stop()
    print_table(df, "T1 / Figure 2 — MR k-center: ratio vs (ell, mu)")
    print("saved:", save_csv(df, "table1_mr_kcenter"))


if __name__ == "__main__":
    main()
