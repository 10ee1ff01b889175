"""Every public algorithm entry point rejects NaN or infinite coordinates
up front. Unchecked, such input makes the streaming guess and merge rules
double forever and the searches return degenerate answers."""
import numpy as np
import pytest

from repro.core.search import charikar
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.kcenter_outliers import (
    mr_kcenter_outliers,
    sequential_coreset_outliers,
)
from repro.streaming.base_outliers import base_stream_outliers
from repro.streaming.base_stream import base_stream_kcenter
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.coreset_stream import coreset_stream_kcenter
from repro.streaming.two_pass import two_pass_outliers

ENTRY_POINTS = {
    "mr_kcenter": lambda s, X: mr_kcenter(s, X, 3, 2, tau=5),
    "mr_kcenter_outliers": lambda s, X: mr_kcenter_outliers(
        s, X, 3, 5, 2, tau=10
    ),
    "sequential_coreset_outliers": lambda s, X: sequential_coreset_outliers(
        X, 3, 5, tau=40
    ),
    "charikar": lambda s, X: charikar(X, 3, 5),
    "coreset_stream_kcenter": lambda s, X: coreset_stream_kcenter(X, 3),
    "coreset_stream_outliers": lambda s, X: coreset_stream_outliers(
        X, 3, 5, tau=40
    ),
    "base_stream_kcenter": lambda s, X: base_stream_kcenter(X, 3),
    "base_stream_outliers": lambda s, X: base_stream_outliers(X, 3, 5),
    "two_pass_outliers": lambda s, X: two_pass_outliers(X, 3, 5),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_non_finite_input(request, name, bad):
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    X[100, 1] = bad
    spark = request.getfixturevalue("spark") if name.startswith("mr_") else None
    with pytest.raises(ValueError, match="NaN or infinite"):
        ENTRY_POINTS[name](spark, X)
