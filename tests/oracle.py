"""DuckDB correctness oracle for the tests: SQL over the *input* recomputes
what the repo's RDD layer returns, so a wrong shuffle or a dropped block
shows up as a different answer, not just "it ran". The package itself never
imports DuckDB."""
import duckdb
import numpy as np
import pandas as pd


def points_table(X: np.ndarray, pids=0) -> pd.DataFrame:
    """Points ``X`` as the table ``(id, pid, x0..x{d-1})``, ``id`` the row
    number."""
    cols = {f"x{j}": X[:, j] for j in range(X.shape[1])}
    return pd.DataFrame({"id": np.arange(len(X)), "pid": pids, **cols})


def query(sql: str, **tables: pd.DataFrame) -> pd.DataFrame:
    """The result of ``sql`` in DuckDB, each pandas frame registered by its
    keyword."""
    with duckdb.connect() as con:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()


def assert_equivalent(got: pd.DataFrame, sql: str, **tables) -> None:
    """The rows of ``got`` (what the repo's code returned) equal those of
    ``sql``'s result, in any order. Alias every output column of ``sql`` as
    ``got`` names it."""
    expected = query(sql, **tables)
    cols = sorted(got.columns)
    assert cols == sorted(expected.columns), (cols, list(expected.columns))

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(expected), check_dtype=False)
