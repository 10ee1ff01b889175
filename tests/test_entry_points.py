"""Every public algorithm entry point rejects NaN or infinite coordinates
up front. Unchecked, such input makes the streaming guess and merge rules
double forever and the searches return degenerate answers.

The MapReduce drivers and the sequential path also reject a degenerate
coreset rule (tau below the paper's bound, eps <= 0, or both tau and eps)
at the driver, with a ``ValueError``, before the input reaches Spark or
GMM; and every entry point rejects a bad k, z or eps before it reads its
input."""
import numpy as np
import pytest

from repro.core.gmm import gmm
from repro.core.search import charikar
from repro.mapreduce import kcenter, kcenter_outliers
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.kcenter_outliers import (
    mr_kcenter_outliers,
    sequential_coreset_outliers,
)
from repro.mapreduce.round1 import coreset_rule
from repro.streaming import two_pass
from repro.streaming.base_outliers import base_stream_outliers
from repro.streaming.base_stream import base_stream_kcenter
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.coreset_stream import coreset_stream_kcenter
from repro.streaming.doubling import DoublingCoreset
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


MR_DRIVERS = {
    "mr_kcenter": lambda s, X, **spec: mr_kcenter(s, X, 3, 2, **spec),
    "mr_kcenter_outliers": lambda s, X, **spec: mr_kcenter_outliers(
        s, X, 3, 5, 2, **spec
    ),
}
DEGENERATE_SPECS = [
    {"tau": 0}, {"tau": -3}, {"eps": 0.0}, {"eps": -0.5}, {"tau": 5, "eps": 0.5}
]


def _spec_id(spec: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in spec.items())


@pytest.mark.parametrize("spec", DEGENERATE_SPECS, ids=_spec_id)
@pytest.mark.parametrize("name", sorted(MR_DRIVERS))
def test_mr_rejects_degenerate_coreset_spec(name, spec, no_pass):
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    with pytest.raises(ValueError, match="must be"):
        MR_DRIVERS[name](None, X, **spec)


# A tau below the paper's bound: k for mr_kcenter and the randomized
# variant, k+z for the deterministic outliers paths (k = 3, z = 5).
BELOW_TAU_BOUND = {
    "mr_kcenter": lambda X: mr_kcenter(None, X, 3, 2, tau=2),
    "mr_kcenter_outliers": lambda X: mr_kcenter_outliers(
        None, X, 3, 5, 2, tau=7
    ),
    "mr_kcenter_outliers-randomized": lambda X: mr_kcenter_outliers(
        None, X, 3, 5, 2, tau=2, randomized=True
    ),
    "sequential_coreset_outliers-tau1": lambda X: sequential_coreset_outliers(
        X, 3, 5, tau=1
    ),
    "sequential_coreset_outliers-tau7": lambda X: sequential_coreset_outliers(
        X, 3, 5, tau=7
    ),
}


@pytest.mark.parametrize("name", sorted(BELOW_TAU_BOUND))
def test_rejects_tau_below_paper_bound(name, no_pass):
    """A tau below the bound is rejected before any pass. Unchecked, a
    coreset of at most k points is its own set of centers at r = 0:
    ``sequential_coreset_outliers`` with tau = 1 or 2 on these 300 points
    (k = 3, z = 5) returned a search radius of 0.0."""
    X = np.random.default_rng(0).normal(size=(300, 2))
    with pytest.raises(ValueError, match="tau must be >="):
        BELOW_TAU_BOUND[name](X)


def test_randomized_accepts_tau_below_k_plus_z(no_pass):
    """The randomized experiments' mu*(k + 6z/ell) may be below k+z, so its
    bound is k: tau = k passes the check and reaches the pass."""
    X = np.random.default_rng(0).normal(size=(300, 2))
    with pytest.raises(AssertionError, match="read its input"):
        mr_kcenter_outliers(None, X, 3, 5, 2, tau=3, randomized=True)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0},
        {"tau": -3},
        {"k_base": 0, "eps": 0.5},
        {"k_base": 3, "eps": 0.0},
        {"k_base": 3, "eps": -1.0},
    ],
    ids=_spec_id,
)
def test_coreset_spec_rejects_degenerate(kwargs):
    with pytest.raises(ValueError, match="must be"):
        coreset_rule(kwargs.get("tau"), kwargs.get("eps"),
                     k_base=kwargs.get("k_base", 1), tau_min=1)


@pytest.mark.parametrize("tau", [0, -3])
def test_gmm_rejects_tau_below_one(tau):
    with pytest.raises(ValueError, match="tau must be >= 1"):
        gmm(np.zeros((5, 2)), tau)


@pytest.mark.parametrize(
    "call",
    [
        lambda X: base_stream_kcenter(X, 0),
        lambda X: base_stream_outliers(X, 0, 5),
    ],
    ids=["base_stream_kcenter", "base_stream_outliers"],
)
def test_baselines_reject_k_zero(call):
    """With k = 0 no guess instance can ever fit its centers, so its guess
    would double forever. A stream of one repeated point never seeds the
    ladder, so this input returns, rather than loops, without the check."""
    X = np.tile([[1.0, 2.0]], (50, 1))
    with pytest.raises(ValueError, match="k must be >= 1"):
        call(X)


@pytest.fixture
def no_pass(monkeypatch):
    """Make every pass over the input fail, so that a test passes only if
    the entry point rejects its arguments before it reads the input."""
    def reached(*args, **kwargs):
        raise AssertionError("the entry point read its input")

    monkeypatch.setattr(DoublingCoreset, "process", reached)
    monkeypatch.setattr(two_pass, "maximal_coreset", reached)
    monkeypatch.setattr(kcenter_outliers, "build_coreset", reached)
    monkeypatch.setattr(kcenter, "to_spark", reached)
    monkeypatch.setattr(kcenter_outliers, "to_spark", reached)


@pytest.mark.parametrize(
    "call",
    [
        lambda X, k, z: coreset_stream_outliers(X, k, z),
        lambda X, k, z: two_pass_outliers(X, k, z),
        lambda X, k, z: sequential_coreset_outliers(X, k, z, tau=10),
    ],
    ids=["coreset_stream_outliers", "two_pass_outliers",
         "sequential_coreset_outliers"],
)
def test_outliers_reject_negative_z(call, no_pass):
    """z < 0 (also z <= -k, where k + z is no valid coreset size) and
    k = 0 are rejected before the pass or the GMM."""
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    for k, z, match in [
        (2, -1, "z must be >= 0"),
        (2, -5, "z must be >= 0"),
        (0, 5, "k must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=match):
            call(X, k, z)


def test_coreset_stream_kcenter_rejects_k_zero(no_pass):
    with pytest.raises(ValueError, match="k must be >= 1"):
        coreset_stream_kcenter(np.zeros((50, 2)), 0)


@pytest.mark.parametrize("eps", [0.0, -0.6])
def test_two_pass_rejects_nonpositive_eps(eps, no_pass):
    with pytest.raises(ValueError, match="eps must be positive"):
        two_pass_outliers(np.zeros((50, 2)), 2, 3, eps=eps)
