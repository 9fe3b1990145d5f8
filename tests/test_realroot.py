"""Root-space polynomial layer: potential, soft maximum, derivative roots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subforge.errors import (
    BarrierNotRightOfRoots,
    DegreeTooSmall,
    DerivativeOrderTooLarge,
    InputError,
    NonPositivePhi,
)
from subforge.realroot import (
    PHI_INFINITY,
    RealRootedPoly,
    derivative_roots,
    derivative_roots_batch,
    max_root,
    nth_derivative_roots,
    potential,
    smax,
)


def test_roots_sorted_and_validated():
    p = RealRootedPoly((3.0, 1.0, 2.0))
    assert p.roots == (1.0, 2.0, 3.0)
    assert p.degree == 3
    assert max_root(p) == 3.0
    with pytest.raises(DegreeTooSmall):
        RealRootedPoly(())
    with pytest.raises(InputError):
        RealRootedPoly((0.0, np.nan))


def test_potential_values():
    p = RealRootedPoly((0.0, 1.0))
    assert potential(p, 2.0) == pytest.approx(1.5, abs=1e-14)
    with pytest.raises(BarrierNotRightOfRoots):
        potential(p, 1.0)
    with pytest.raises(BarrierNotRightOfRoots):
        potential(p, 0.5)


def test_smax_simple():
    # potential of {0,1} at b=2 is exactly 3/2, so smax at phi=3/2 is 2
    p = RealRootedPoly((0.0, 1.0))
    assert smax(p, 1.5) == pytest.approx(2.0, rel=1e-10)


def test_smax_large_phi_closed_form():
    # {-1,1}: phi*b^2 - 2b - phi = 0, b = (1 + sqrt(1 + phi^2))/phi
    phi = 1e6
    expect = (1.0 + math.sqrt(1.0 + phi * phi)) / phi
    got = smax(RealRootedPoly((-1.0, 1.0)), phi)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got > 1.0


def test_smax_infinite_phi_is_max_root():
    p = RealRootedPoly((-2.0, 0.5, 7.0))
    assert smax(p, PHI_INFINITY) == 7.0


def test_smax_phi_validation():
    p = RealRootedPoly((0.0, 1.0))
    for bad in (0.0, -1.0, np.inf, "big", True):
        with pytest.raises(NonPositivePhi):
            smax(p, bad)


def test_smax_when_newton_slope_overflows():
    # (u + d)^2 overflows to inf at this scale, so the Newton slope is -0.0;
    # the solver must bisect instead of dividing by it
    p = RealRootedPoly((1e200, 2e200, 3e200))
    b = smax(p, 1e-200)
    assert 4e200 <= b <= 6e200  # the bracket max_root + [1, degree] / phi
    assert potential(p, b) == pytest.approx(1e-200, rel=1e-8)


def test_smax_decreasing_in_phi():
    rng = np.random.default_rng(17)
    p = RealRootedPoly(tuple(np.sort(rng.normal(0, 1, 9))))
    vals = [smax(p, phi) for phi in (0.1, 1.0, 10.0, 1000.0)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] > max_root(p)


def test_derivative_roots_cubic():
    # (x-1)(x-2)(x-3): critical points 2 +/- 1/sqrt(3) by the quadratic formula
    q = derivative_roots(RealRootedPoly((1.0, 2.0, 3.0)))
    assert q.roots == pytest.approx((2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3)), abs=1e-12)


def test_derivative_roots_multiple_root():
    # (x+1/2)^2 (x-1): derivative factors as (x+1/2)(3x - 3/2) exactly
    q = derivative_roots(RealRootedPoly((-0.5, -0.5, 1.0)))
    assert q.roots == (-0.5, 0.5)


def test_derivative_roots_all_equal():
    q = derivative_roots(RealRootedPoly((2.0, 2.0, 2.0)))
    assert q.roots == (2.0, 2.0)
    with pytest.raises(DegreeTooSmall):
        derivative_roots(RealRootedPoly((1.0,)))


def test_derivative_roots_interlace():
    # Rolle: between consecutive roots of p there is exactly one root of p'
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        roots = np.sort(rng.normal(0.0, 3.0, n))
        q = derivative_roots(RealRootedPoly(tuple(roots)))
        mu = np.asarray(q.roots)
        assert len(mu) == n - 1
        assert np.all(roots[:-1] <= mu + 1e-9)
        assert np.all(mu <= roots[1:] + 1e-9)


def test_derivative_roots_against_coefficient_oracle():
    # cross-check the root-space walk against numpy's companion-matrix roots
    rng = np.random.default_rng(23)
    for _ in range(10):
        roots = np.sort(rng.uniform(-4.0, 4.0, 7))
        q = derivative_roots(RealRootedPoly(tuple(roots)))
        coeffs = np.polynomial.polynomial.polyfromroots(roots)
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        ref = np.sort(np.roots(dcoeffs[::-1]).real)
        assert np.max(np.abs(np.asarray(q.roots) - ref)) <= 1e-7


def test_nth_derivative_degree_and_mean():
    # the (n-1)-st derivative of a monic polynomial has its root at the mean
    roots = (-3.0, -1.0, 0.5, 2.0, 6.0)
    p = RealRootedPoly(roots)
    last = nth_derivative_roots(p, 4)
    assert last.degree == 1
    assert last.roots[0] == pytest.approx(np.mean(roots), abs=1e-9)
    assert nth_derivative_roots(p, 0).roots == p.roots


def test_nth_derivative_order_validation():
    p = RealRootedPoly((0.0, 1.0, 2.0))
    with pytest.raises(DerivativeOrderTooLarge):
        nth_derivative_roots(p, 3)
    with pytest.raises(InputError):
        nth_derivative_roots(p, 1.5)


def _reference_derivative_roots(roots, rel=1e-10, root_tol=1e-12):
    """One polynomial at a time, with the cluster loop: the scalar algorithm
    that derivative_roots_batch must reproduce bit for bit on every row."""
    breaks = [0]
    for i in range(1, len(roots)):
        if roots[i] - roots[breaks[-1]] > rel * max(1.0, abs(roots[i])):
            breaks.append(i)
    breaks.append(len(roots))
    distinct = np.array([roots[breaks[j]:breaks[j + 1]].mean() for j in range(len(breaks) - 1)])
    mult = np.diff(breaks)
    kept = np.repeat(distinct, mult - 1)
    if len(distinct) == 1:
        return kept
    lo = distinct[:-1].copy()
    hi = distinct[1:].copy()
    mw = mult.astype(float)

    def s_at(x):
        return np.sum(mw[None, :] / (x[:, None] - distinct[None, :]), axis=1)

    for _ in range(120):
        mid = 0.5 * (lo + hi)
        pos = s_at(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.all(hi - lo <= root_tol * np.maximum(1.0, np.abs(mid))):
            break
    x = 0.5 * (lo + hi)
    for _ in range(2):
        diffs = x[:, None] - distinct[None, :]
        s = np.sum(mw[None, :] / diffs, axis=1)
        sp = np.sum(mw[None, :] / diffs**2, axis=1)
        step = x + s / sp
        x = np.where((step > lo) & (step < hi), step, x)
    return np.sort(np.concatenate([kept, x]))


_VALUES = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def _root_batches(draw):
    """Same-degree rows of mixed cluster structure: free, drawn from a small
    pool (repeated roots), all equal, or pairs split by about the cluster
    tolerance."""
    deg = draw(st.integers(2, 12))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("free", "pool", "equal", "near")))
        if kind == "free":
            row = draw(st.lists(_VALUES, min_size=deg, max_size=deg))
        elif kind == "pool":
            row = draw(st.lists(st.sampled_from(pool), min_size=deg, max_size=deg))
        elif kind == "equal":
            row = [draw(_VALUES)] * deg
        else:
            base = draw(st.lists(_VALUES, min_size=1, max_size=deg))
            eps = draw(st.sampled_from((0.5e-10, 1e-10, 2e-10)))
            row = [b + j * eps * max(1.0, abs(b)) for j, b in enumerate(base)]
            row = (row * deg)[:deg]
        rows.append(sorted(row))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_root_batches())
def test_derivative_roots_batch_matches_each_row(rows):
    got = derivative_roots_batch(rows)
    assert got.shape == (rows.shape[0], rows.shape[1] - 1)
    for row, out in zip(rows, got):
        ref = _reference_derivative_roots(row)
        assert [v.hex() for v in out] == [float(v).hex() for v in ref]
        alone = derivative_roots(RealRootedPoly(tuple(row))).roots
        assert [v.hex() for v in out] == [v.hex() for v in alone]


def test_derivative_roots_batch_mixed_rows():
    # distinct roots, a double top root, all equal, and a triple interior
    # root in one batch of degree 4; degree 2 on its own
    rows = np.array([[-1.0, 0.0, 2.0, 5.0],
                     [-1.0, 0.0, 3.0, 3.0],
                     [2.0, 2.0, 2.0, 2.0],
                     [-4.0, 1.0, 1.0, 1.0]])
    got = derivative_roots_batch(rows)
    for row, out in zip(rows, got):
        assert np.array_equal(out, _reference_derivative_roots(row))
    assert tuple(got[2]) == (2.0, 2.0, 2.0)
    quad = derivative_roots_batch(np.array([[0.0, 1.0], [3.0, 3.0]]))
    assert quad[0, 0] == pytest.approx(0.5, abs=1e-12) and quad[1, 0] == 3.0
    assert quad[0, 0] == _reference_derivative_roots(np.array([0.0, 1.0]))[0]
    with pytest.raises(DegreeTooSmall):
        derivative_roots_batch(np.array([[1.0], [2.0]]))
