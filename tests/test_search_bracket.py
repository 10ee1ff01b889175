"""The bracket certificate of the radius search.

Feasibility is not monotone in r, so the search does not promise the
smallest feasible radius. It promises a bracket: the answer r is 0, or the
first positive candidate, or lies just above the largest infeasible probe
r_lo in the trace: r <= (1+delta) * r_lo on the (1+delta) grid, and no
pairwise distance strictly between r_lo and r in the exact search. Lemma 5
(every r >= r* is feasible) puts r_lo below r*, which gives Theorem 2's
r < (1+delta) * r*.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import cdist
from repro.core.search import (
    default_delta,
    min_feasible_radius,
    min_feasible_radius_exact,
)


@st.composite
def instances(draw):
    """Float or integer coordinates (the latter with many coincident
    points), integer weights, any k, z up to the total weight."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pts = g.integers(-4, 5, (n, d)).astype(float)
    else:
        pts = g.normal(size=(n, d)) * 10.0 ** g.uniform(-2, 2)
    w = g.integers(1, 5, n).astype(float)
    k = draw(st.integers(1, 4))
    z = draw(st.integers(0, int(w.sum())))
    eps_hat = draw(st.sampled_from([0.0, 0.05, 0.1, 0.5]))
    return pts, w, k, z, eps_hat


def _bracket(res, z, first_positive):
    """``None`` if the answer is 0 or the first positive candidate, else
    the largest infeasible probe, which must lie below the answer."""
    assert res.cluster.uncovered_weight <= z
    if res.r in (0.0, first_positive):
        return None
    r_lo = max(r for r, unc_w, _ in res.trace if unc_w > z)
    assert r_lo < res.r
    return r_lo


@settings(max_examples=200, deadline=None)
@given(instances())
def test_grid_answer_within_one_step_of_an_infeasible_probe(inst):
    pts, w, k, z, eps_hat = inst
    delta = default_delta(eps_hat) or 0.05
    res = min_feasible_radius(pts, w, k, z, eps_hat, delta=delta)
    D = cdist(pts, pts)
    r_lo = _bracket(res, z, float(np.min(D, where=D > 0.0, initial=np.inf)))
    if r_lo is not None:
        assert res.r <= (1.0 + delta) * r_lo * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_exact_answer_next_distance_above_an_infeasible_probe(inst):
    pts, w, k, z, eps_hat = inst
    res = min_feasible_radius_exact(pts, w, k, z, eps_hat)
    dists = np.unique(cdist(pts, pts))
    positive = dists[dists > 0.0]
    first = float(positive[0]) if len(positive) else None
    r_lo = _bracket(res, z, first)
    if r_lo is not None:
        assert not ((dists > r_lo) & (dists < res.r)).any()
