"""Bit-identity of the derivative-bounds kernels against frozen references.

`optimize_barrier` solves its 64-point grid in one lane-wise smax call
(`_smax_lanes`), scalar `smax` forms u + d once per iteration, and
`_interior_roots` skips the exit tests that cannot hold yet.  All three must
give the very bits of the straightforward versions kept below: one scalar
smax per grid point and an exit test on every bisection step.  The guard
compares whole bounds and derivative chains both ways, and also the grid's
objective values, which the bound only sees through their argmin.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subforge import barrier, realroot
from subforge.barrier import optimize_barrier
from subforge.realroot import (
    PHI_INFINITY,
    RealRootedPoly,
    _smax_lanes,
    derivative_roots_batch,
    nth_derivative_roots,
    smax,
)


def _frozen_smax(p, phi, exits=None):
    """The scalar soft maximum as it was; `exits` collects (iterations, which test)."""
    d = p.roots[-1] - p.as_array()
    n = p.degree
    lo, hi = 1.0 / phi, n / phi
    if n == 1:
        return p.roots[-1] + 1.0 / phi
    u = hi
    how = "cap"
    with np.errstate(over="ignore"):
        for it in range(200):
            f = float(np.sum(1.0 / (u + d))) - phi
            if abs(f) <= 1e-10 * phi:
                how = "potential"
                break
            if f > 0.0:
                lo = u
            else:
                hi = u
            fp = -float(np.sum(1.0 / (u + d) ** 2))
            step = u - f / fp if fp else lo
            u = step if lo < step < hi else 0.5 * (lo + hi)
            if hi - lo <= 1e-16 * hi:
                how = "bracket"
                break
    if exits is not None:
        exits.append((it, how))
    return p.roots[-1] + u


def _frozen_optimize_barrier(p, k):
    """optimize_barrier as it was (one scalar smax per grid point) for a
    non-degenerate p; returns (bound, optimal_b, optimal_phi) and the grid's
    objective values."""
    roots = p.as_array()
    span = float(roots[-1] - roots[0])
    n = p.degree
    lo = math.log(1e-4 * n / span)
    hi = math.log(1e7 * n / span)

    def g(logphi):
        phi = math.exp(logphi)
        return _frozen_smax(p, phi) - k / phi

    grid = np.linspace(lo, hi, 64)
    vals = [g(t) for t in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = g(c1), g(c2)
    for _ in range(90):
        if b - a <= 1e-12:
            break
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = g(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = g(c2)
    phi = math.exp(c1 if f1 <= f2 else c2)
    opt_b = _frozen_smax(p, phi)
    return (opt_b - k / phi, opt_b, phi), vals


def _frozen_interior_roots(mu, w):
    """The derivative bisection as it was: the exit test on every step."""
    lo = mu[:, :-1].copy()
    hi = mu[:, 1:].copy()
    live = np.arange(len(mu))
    a_lo, a_hi, a_mu, a_w = lo, hi, mu[:, None, :], w[:, None, :]
    for _ in range(120):
        mid = 0.5 * (a_lo + a_hi)
        pos = (a_w / (mid[:, :, None] - a_mu)).sum(axis=2) > 0.0
        a_lo = np.where(pos, mid, a_lo)
        a_hi = np.where(pos, a_hi, mid)
        done = (a_hi - a_lo <= 1e-12 * np.maximum(1.0, np.abs(mid))).all(axis=1)
        n_done = np.count_nonzero(done)
        if n_done == len(live):
            break
        if n_done:
            lo[live[done]] = a_lo[done]
            hi[live[done]] = a_hi[done]
            rest = ~done
            live, a_lo, a_hi, a_mu, a_w = live[rest], a_lo[rest], a_hi[rest], a_mu[rest], a_w[rest]
    lo[live] = a_lo
    hi[live] = a_hi
    x = 0.5 * (lo + hi)
    for _ in range(2):
        diffs = x[:, :, None] - mu[:, None, :]
        s = (w[:, None, :] / diffs).sum(axis=2)
        sp = (w[:, None, :] / diffs**2).sum(axis=2)
        step = x + s / sp
        x = np.where((step > lo) & (step < hi), step, x)
    return x


def _hex(xs):
    return [float(x).hex() for x in np.ravel(xs)]


def _bound_polys():
    """The derivative-bounds shapes (degree 2-60, roots ~ N(0, 2^2)), clustered
    and repeated roots, 1e+-150 scales, and degree 1 and 2."""
    rng = np.random.default_rng(20261)
    polys = [rng.normal(0.0, 2.0, deg) for deg in range(2, 61, 3)]
    for deg in (6, 17, 40):
        repeated = np.repeat(rng.normal(0.0, 2.0, deg // 3 + 1), 3)[:deg]
        polys.append(repeated)  # exact multiplicities
        polys.append(repeated + rng.normal(0.0, 1e-11, deg))  # clusters within _CLUSTER_TOL
        polys.append(repeated + rng.normal(0.0, 1e-9, deg))  # near-clusters just outside it
        polys.append(np.round(rng.normal(0.0, 2.0, deg), 1))
    polys += [scale * rng.normal(0.0, 1.0, deg) for scale in (1e150, 1e-150) for deg in (2, 9, 30)]
    polys += [np.array([3.0]), np.array([-1.0, 1.0]), np.array([1e-300, 2.0])]
    return [RealRootedPoly(tuple(roots)) for roots in polys]


def _ks(deg):
    """Every k for degree up to 6; above, two k half a period apart on a
    golden-ratio sequence over [0, deg), as the benchmark draws them."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    if deg <= 6:
        return range(deg)
    return sorted({int(((deg * golden + c / 2) % 1.0) * deg) for c in range(2)})


def _bounds(polys, frozen):
    """(bound, b, phi) by float.hex for every poly and k, and the objective
    values of every grid: from the frozen reference, or from the library with
    a spy on `_smax_lanes`."""
    reports, grids = [], []

    def spy(p, phis):
        values = _smax_lanes(p, phis)
        grids.append(_hex(values - k / phis))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(barrier, "_smax_lanes", spy)
        for p in polys:
            for k in _ks(p.degree):
                degenerate = p.roots[-1] - p.roots[0] <= 1e-10 * max(1.0, abs(p.roots[-1]))
                if frozen and not degenerate:
                    report, vals = _frozen_optimize_barrier(p, k)
                    grids.append(_hex(vals))
                elif frozen:
                    report = (p.roots[-1], p.roots[-1], PHI_INFINITY)
                else:
                    r = optimize_barrier(p, k)
                    report = (r.bound, r.optimal_b, r.optimal_phi)
                phi = report[2]
                reports.append(_hex(report[:2]) + [phi if phi is PHI_INFINITY else phi.hex()])
    return reports, grids


def test_barrier_bounds_match_frozen_reference():
    polys = _bound_polys()
    got, got_grids = _bounds(polys, frozen=False)
    ref, ref_grids = _bounds(polys, frozen=True)
    assert len(got_grids) == len(ref_grids) > 80
    assert got_grids == ref_grids
    assert got == ref


def _chains(polys):
    """The roots of every derivative of every poly, level by level."""
    out = []
    for p in polys:
        q = p
        for _ in range(p.degree - 1):
            q = nth_derivative_roots(q, 1)
            out.append(_hex(q.roots))
    return out


def test_derivative_chains_match_frozen_reference(monkeypatch):
    polys = _bound_polys()
    got = _chains(polys)
    monkeypatch.setattr(realroot, "_interior_roots", _frozen_interior_roots)
    assert got == _chains(polys)


@st.composite
def _candidate_rows(draw):
    """(r, m) ascending root rows as the maxroot candidate chains batch them,
    mixing row scales so that rows finish their bisection on different steps."""
    m = draw(st.integers(2, 30))
    r = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(0.0, 1.0, (r, m)) * 10.0 ** rng.integers(-3, 4, size=(r, 1))
    if draw(st.booleans()):
        rows = np.round(rows, 1)  # repeated roots, so groups of distinct counts
    return np.sort(rows, axis=1)


@settings(max_examples=150, deadline=None)
@given(rows=_candidate_rows())
def test_derivative_roots_batch_matches_frozen_bisection(rows):
    got = derivative_roots_batch(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realroot, "_interior_roots", _frozen_interior_roots)
        ref = derivative_roots_batch(rows)
    assert _hex(got) == _hex(ref)


@st.composite
def _lane_inputs(draw):
    """A polynomial and a vector of phis: gaussian, clustered or 1e+-200-scaled
    roots of degree 1-60, phis spread over many decades."""
    deg = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["gaussian", "clustered", "huge", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = rng.normal(0.0, 2.0, deg)
    if kind == "clustered":
        roots = np.round(roots, 0)
    elif kind == "huge":
        roots *= 1e200
    elif kind == "tiny":
        roots *= 1e-200
    centre = draw(st.floats(-200.0, 200.0))
    width = draw(st.floats(0.0, 12.0))
    logs = centre + width * rng.uniform(-1.0, 1.0, draw(st.integers(1, 64)))
    return RealRootedPoly(tuple(roots)), np.array([10.0 ** x for x in logs])


_OVERFLOW = (RealRootedPoly((-3e200, 1e200, 2e200)), np.array([1e-200, 3e-199, 1e-198, 1.0]))
_SPREAD = (RealRootedPoly((-2.0, -0.5, 0.1, 0.3, 1.5)),
           np.array([1e-308] + [10.0 ** x for x in range(-6, 9)]))  # 1/1e-308 * 5 overflows


# tiny roots at large phi underflow t**2 to 0; the frozen scalar smax then
# divides by zero (fp = -inf) and bisects, warning as it always has
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=_lane_inputs())
@example(case=_OVERFLOW)
@example(case=_SPREAD)
@example(case=(RealRootedPoly((0.7,)), np.array([1e-300, 1e-3, 1.0, 3.0, 1e300])))
def test_smax_lanes_match_scalar_smax(case):
    p, phis = case
    lanes = _smax_lanes(p, phis)
    scalar = [smax(p, float(phi)) for phi in phis]
    assert _hex(lanes) == _hex(scalar)
    assert _hex(scalar) == _hex([_frozen_smax(p, float(phi)) for phi in phis])


def test_lane_examples_exercise_both_exits_and_overflow():
    # the lanes above must end on different iterations and by both tests,
    # and the overflow case must reach the bisection fallback (fp = -0.0)
    exits = []
    for p, phis in (_OVERFLOW, _SPREAD):
        for phi in phis:
            _frozen_smax(p, float(phi), exits)
    assert len({it for it, _ in exits}) > 3
    assert {how for _, how in exits} == {"potential", "bracket"}
    p, phis = _OVERFLOW
    t = p.degree / phis[0] + (p.roots[-1] - p.as_array())
    with np.errstate(over="ignore"):
        assert (1.0 / t**2).sum() == 0.0
