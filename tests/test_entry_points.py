"""Every public algorithm entry point returns one ``Result`` record, whose
timings cover the whole call, and rejects NaN or infinite coordinates, a
1-D array and an empty point set up front. Unchecked, non-finite input
makes the streaming guess and merge rules double forever and the searches
return degenerate answers.

The MapReduce drivers and the sequential path also reject a tau below the
paper's bound at the driver, with a ``ValueError``, before the input
reaches Spark or GMM; they take no ``eps`` (a fixed tau is the one
coreset rule); and every entry point rejects a bad k or z before it reads
its input.

Inside the float64 range a power-of-two scale 2^p is exact, so each entry
point's answer on 2^p X is 2^p times its answer on X, bit for bit; outside
it (squared distances that overflow or underflow) the input is rejected."""
import inspect
import time

import numpy as np
import pytest

from repro import experiments
from repro.core import search
from repro.core.gmm import gmm
from repro.core.result import Result
from repro.core.search import charikar
from repro.mapreduce import kcenter, kcenter_outliers
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.kcenter_outliers import (
    mr_kcenter_outliers,
    sequential_coreset_outliers,
)
from repro.streaming import common
from repro.streaming.base_outliers import base_stream_outliers
from repro.streaming.base_stream import base_stream_kcenter
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.coreset_stream import coreset_stream_kcenter
from repro.streaming.doubling import DoublingCoreset
from tests.conftest import planted_clusters

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
}


# Each entry point's timed layers, in order.
LAYERS = {
    "mr_kcenter": ["setup", "round1", "round2", "evaluate"],
    "mr_kcenter_outliers": ["setup", "round1", "round2", "evaluate"],
    "sequential_coreset_outliers": ["setup", "round1", "round2"],
    "charikar": ["setup", "search"],
    "coreset_stream_kcenter": ["setup", "pass", "final"],
    "coreset_stream_outliers": ["setup", "pass", "final"],
    "base_stream_kcenter": ["setup", "pass", "final"],
    "base_stream_outliers": ["setup", "pass", "final"],
}
# The entry points that build a weighted coreset, whose total weight is n.
WEIGHTED = {"mr_kcenter", "mr_kcenter_outliers", "sequential_coreset_outliers",
            "coreset_stream_kcenter", "coreset_stream_outliers"}
# The streams, which read the input once.
STREAMS = {"coreset_stream_kcenter", "coreset_stream_outliers",
           "base_stream_kcenter", "base_stream_outliers"}
SEARCHED = {"mr_kcenter_outliers", "sequential_coreset_outliers", "charikar",
            "coreset_stream_outliers"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_returns_one_record(request, name):
    X = np.random.default_rng(1).uniform(-1, 1, (200, 2))
    spark = request.getfixturevalue("spark") if name.startswith("mr_") else None
    res = ENTRY_POINTS[name](spark, X)
    assert isinstance(res, Result)
    assert res.centers.shape[1] == 2 and 1 <= len(res.centers) <= 3
    assert list(res.timings) == LAYERS[name]
    assert all(t >= 0 for t in res.timings.values())
    assert res.coreset_weight == (len(X) if name in WEIGHTED else None)
    assert res.n_processed == (len(X) if name in STREAMS else None)
    assert (res.space is not None) == (name in STREAMS)
    assert (res.radius is not None) == name.startswith("mr_")
    assert (res.part_sizes is not None) == name.startswith("mr_")
    assert (res.search is not None) == (name in SEARCHED)


@pytest.mark.parametrize("name", ["mr_kcenter", "mr_kcenter_outliers"])
def test_mr_timings_cover_the_call(spark, name):
    """The layers of an MR driver's record add up to the wall time of the
    call, to/from Spark and the distributed radius included."""
    X = np.random.default_rng(2).uniform(-1, 1, (4000, 3))
    t0 = time.perf_counter()
    res = ENTRY_POINTS[name](spark, X)
    wall = time.perf_counter() - t0
    assert abs(sum(res.timings.values()) - wall) <= max(0.01 * wall, 0.002)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_empty_input(name):
    """Every entry point raises the same error for n = 0; none returns 0
    centers."""
    with pytest.raises(ValueError, match="empty point set"):
        ENTRY_POINTS[name](None, np.empty((0, 2)))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_1d_input(name):
    """A vector of 50 scalars is not read as one 50-D point."""
    with pytest.raises(ValueError, match="2-D"):
        ENTRY_POINTS[name](None, np.arange(50.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_non_finite_input(request, name, bad):
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    X[100, 1] = bad
    spark = request.getfixturevalue("spark") if name.startswith("mr_") else None
    with pytest.raises(ValueError, match="NaN or infinite"):
        ENTRY_POINTS[name](spark, X)


def test_every_entry_point_has_a_table():
    """The entry points these tests check are the algorithms the experiment
    tables run: the functions ``repro.experiments`` imports that return a
    ``Result``. An algorithm no table runs, or one these tests skip, fails
    here."""
    tabled = {
        name for name, f in vars(experiments).items()
        if inspect.isfunction(f) and f.__module__ != experiments.__name__
        and f.__annotations__.get("return") in ("Result", Result)
    }
    assert set(ENTRY_POINTS) == tabled


def clusters_with_outliers() -> np.ndarray:
    """185 shuffled 2-D points, |x| <= 40: three blobs of 60 and 5 far
    points, one per z = 5 outlier."""
    pts = planted_clusters(60, [(0, 0), (20, 0), (0, 20)], 1.0, seed=5)
    far = np.array([[40.0, 40], [-40, 35], [35, -40], [-38, -38], [40, 0]])
    allpts = np.vstack([pts, far])
    return allpts[np.random.default_rng(6).permutation(len(allpts))]


@pytest.mark.parametrize("s", [1e154, 1e300, 1e-170])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_out_of_range_scale(name, s, no_pass):
    """Coordinates whose squared distances overflow or underflow float64
    are rejected up front. Unchecked, on these points BASESTREAM and
    BASEOUTLIERS returned 3 centers whose z-radius is NaN, the sequential
    path 1 center at search radius 0 and CHARIKARETAL 1 center at
    r = inf from s = 1e154; at s = 1e-170 every answer had z-radius 0."""
    with pytest.raises(ValueError, match="overflow or underflow"):
        ENTRY_POINTS[name](None, s * clusters_with_outliers())


_UNSCALED: dict[str, Result] = {}


def _run_scaled(request, name: str, p: int) -> Result:
    spark = request.getfixturevalue("spark") if name.startswith("mr_") else None
    return ENTRY_POINTS[name](spark, 2.0 ** p * clusters_with_outliers())


@pytest.mark.parametrize("p", [-60, -7, 5, 40])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_scale_equivariant(request, name, p):
    """On 2^p X every entry point returns 2^p times its centers on X, bit
    for bit, its radii scaled by 2^p and every count unchanged."""
    if name not in _UNSCALED:
        _UNSCALED[name] = _run_scaled(request, name, 0)
    base, res = _UNSCALED[name], _run_scaled(request, name, p)
    c = 2.0 ** p

    assert res.centers.tobytes() == (c * base.centers).tobytes()
    assert res.radius == (None if base.radius is None else c * base.radius)
    for field in ("coreset_size", "coreset_weight", "space", "n_processed",
                  "part_sizes"):
        assert getattr(res, field) == getattr(base, field), field
    assert (res.search is None) == (base.search is None)
    if base.search is not None:
        assert res.search.r == c * base.search.r
        assert res.search.trace == tuple(
            (c * r, u, m) for r, u, m in base.search.trace
        )
        # A search that stops at r = 0 would scale trivially.
        assert res.search.evaluations > 1


MR_DRIVERS = {
    "mr_kcenter": lambda s, X, **spec: mr_kcenter(s, X, 3, 2, **spec),
    "mr_kcenter_outliers": lambda s, X, **spec: mr_kcenter_outliers(
        s, X, 3, 5, 2, **spec
    ),
}
DEGENERATE_SPECS = [{"tau": 0}, {"tau": -3}]


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


# Every driver that takes a coreset size.
TAU_DRIVERS = {
    **MR_DRIVERS,
    "sequential_coreset_outliers": lambda s, X, **spec: (
        sequential_coreset_outliers(X, 3, 5, **spec)
    ),
}


@pytest.mark.parametrize("name", sorted(TAU_DRIVERS))
def test_tau_is_the_one_coreset_rule(name, no_pass):
    """``tau`` is required, and the paper's eps rule is not an option:
    ``eps=`` is an unexpected keyword, not a second way to size the
    coreset."""
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    with pytest.raises(TypeError, match="tau"):
        TAU_DRIVERS[name](None, X)
    with pytest.raises(TypeError, match="eps"):
        TAU_DRIVERS[name](None, X, tau=40, eps=0.5)


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
    monkeypatch.setattr(kcenter_outliers, "build_coreset", reached)
    monkeypatch.setattr(kcenter, "to_spark", reached)
    monkeypatch.setattr(kcenter_outliers, "to_spark", reached)
    # CHARIKARETAL's pass is its search's distance build. The baselines'
    # guess instances exist only once the ladder's scale is read from the
    # first distinct points (``min_gap``); on inputs that never give it a
    # scale (all distances 0 or NaN) no instance pass runs at all.
    monkeypatch.setattr(search, "pair_tiles", reached)
    monkeypatch.setattr(common, "min_gap", reached)


@pytest.mark.parametrize(
    "call",
    [
        lambda X, k, z: coreset_stream_outliers(X, k, z),
        lambda X, k, z: sequential_coreset_outliers(X, k, z, tau=10),
    ],
    ids=["coreset_stream_outliers", "sequential_coreset_outliers"],
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
