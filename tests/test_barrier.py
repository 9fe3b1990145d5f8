"""Barrier bounds: numeric optimizer, closed forms, and the two-point surrogate."""

import math

import numpy as np
import pytest

from subforge.barrier import (
    SpectralProfile,
    barrier_bound,
    bt_bound,
    hm_bound,
    kastza_bound,
    modified_stable_rank,
    mrr_bound,
    mrr_optimal_barrier,
    optimize_barrier,
    refined_potential_bound,
    shifted_min_bound,
    xst_params,
    zd1_bound,
    zd3_bound,
)
from subforge.errors import (
    BarrierNotRightOfOne,
    CRangeError,
    DegenerateProfile,
    InputError,
    KOutOfRange,
)
from subforge.realroot import PHI_INFINITY, RealRootedPoly, nth_derivative_roots, smax


def test_barrier_bound_value():
    # smax({0,1}, 3/2) = 2 and one derivative shifts by 1/phi = 2/3
    p = RealRootedPoly((0.0, 1.0))
    assert barrier_bound(p, 1, 1.5) == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert barrier_bound(p, 0, 1.5) == pytest.approx(2.0, rel=1e-10)
    assert barrier_bound(p, 1, PHI_INFINITY) == 1.0
    with pytest.raises(KOutOfRange):
        barrier_bound(p, 2, 1.5)
    with pytest.raises(KOutOfRange):
        barrier_bound(p, -1, 1.5)


def test_optimize_barrier_two_point_anchor():
    # closed form at alpha=1/2, c=3/4: 1/2 + sqrt(3)/4 = 0.9330127018922193
    p = RealRootedPoly((0.0,) * 20 + (1.0,) * 20)
    report = optimize_barrier(p, 30)
    assert abs(report.bound - 0.9330127018922193) <= 1e-6
    assert report.formula_id == "barrier_numeric"
    assert report.optimal_b > 1.0
    # the reported (phi, b) pair is self-consistent
    assert smax(p, report.optimal_phi) == pytest.approx(report.optimal_b, rel=1e-9)


def test_optimize_barrier_dominates_truth():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(0, n))
        p = RealRootedPoly(tuple(np.sort(rng.normal(0.0, 2.0, n))))
        report = optimize_barrier(p, k)
        exact = nth_derivative_roots(p, k).roots[-1]
        assert report.bound >= exact - 1e-9


def test_optimize_barrier_degenerate_spectrum():
    report = optimize_barrier(RealRootedPoly((2.0, 2.0, 2.0)), 2)
    assert report.bound == 2.0
    assert report.optimal_phi is PHI_INFINITY
    assert report.formula_id == "degenerate"


def test_spectral_profile_validation():
    SpectralProfile(4, 0.5, 0.375)
    with pytest.raises(InputError):
        SpectralProfile(0, 0.5, 0.375)
    with pytest.raises(InputError):
        SpectralProfile(4, 1.5, 0.5)
    with pytest.raises(InputError):
        SpectralProfile(4, 0.5, 0.6)  # beta > alpha
    with pytest.raises(InputError):
        SpectralProfile(4, 0.5, 0.2)  # beta < alpha^2


def test_hm_bound_value():
    prof = SpectralProfile(10, 0.5, 0.3)
    assert hm_bound(prof, 2.0) == pytest.approx(7.5, abs=1e-12)
    with pytest.raises(BarrierNotRightOfOne):
        hm_bound(prof, 1.0)


def test_mrr_closed_forms():
    assert mrr_bound(0.5, 0.75) == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-15)
    assert mrr_optimal_barrier(0.5, 0.75) == pytest.approx(0.5 + math.sqrt(3) / 2, abs=1e-15)
    assert mrr_bound(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(CRangeError):
        mrr_bound(0.5, 0.25)  # c below alpha
    with pytest.raises(CRangeError):
        mrr_optimal_barrier(0.5, 1.0)


def test_zd_closed_forms():
    assert zd1_bound(0.75) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert zd1_bound(0.5) == pytest.approx(1.0, abs=1e-15)
    assert zd3_bound(0.25, 0.5) == pytest.approx(mrr_bound(0.5, 0.75), abs=1e-15)
    with pytest.raises(CRangeError):
        zd1_bound(0.4)
    with pytest.raises(CRangeError):
        zd3_bound(0.25, 0.8)  # c above 1 - alpha


def test_modified_stable_rank():
    assert modified_stable_rank(0.5, 0.3) == pytest.approx(0.25 / 0.3, abs=1e-15)
    assert modified_stable_rank(0.5, 0.25) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        modified_stable_rank(0.5, 0.6)
    with pytest.raises(InputError):
        modified_stable_rank(0.0, 0.0)


@pytest.mark.parametrize("tr_b2", [0.0, float("nan")])
def test_modified_stable_rank_rejects_vanishing_or_nan_square_trace(tr_b2):
    # tr(B)^2 - 1e-12 < 0 lets 0 through the range check; NaN fails no comparison
    with pytest.raises(InputError):
        modified_stable_rank(1e-7, tr_b2)


def test_xst_params_rejects_vanishing_denominator():
    # the mean of six eigenvalues 1 - 1e-9: 1 - 2 alpha + beta rounds to 0
    alpha = 1.0 - 1e-9
    beta = float(np.clip(np.mean(np.full(6, alpha) ** 2), alpha**2, alpha))
    assert 1.0 - 2.0 * alpha + beta == 0.0
    with pytest.raises(DegenerateProfile):
        xst_params(SpectralProfile(6, alpha, beta))


def test_norm_and_min_eigenvalue_bounds():
    # (sqrt(3/4) - sqrt(1/4))^2 = 1 - sqrt(3)/2, so the pair is complementary
    gap = (math.sqrt(0.75) - math.sqrt(0.25)) ** 2
    assert kastza_bound(0.5, 0.5, 0.25) == pytest.approx(1.0 - 0.5 * gap, abs=1e-15)
    assert bt_bound(0.5, 0.5, 0.25) == pytest.approx(0.5 * gap, abs=1e-15)
    assert kastza_bound(0.5, 0.5, 0.25) + bt_bound(0.5, 0.5, 0.25) == pytest.approx(1.0)
    with pytest.raises(CRangeError):
        kastza_bound(0.5, 0.5, 0.6)  # c above delta
    with pytest.raises(CRangeError):
        bt_bound(0.5, 1.5, 0.5)


def test_xst_params_substitution():
    x, s, t = xst_params(SpectralProfile(12, 0.5, 0.375))
    assert x == pytest.approx(0.25, abs=1e-15)
    assert s == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert t == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert s + t == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateProfile):
        xst_params(SpectralProfile(4, 1.0, 1.0))


def test_xst_moments_match():
    # surrogate s*1 + t*x reproduces alpha, s*1 + t*x^2 reproduces beta
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(a * a, a))
        x, s, t = xst_params(SpectralProfile(8, a, b))
        assert s * 1.0 + t * x == pytest.approx(a, abs=1e-12)
        assert s * 1.0 + t * x * x == pytest.approx(b, abs=1e-12)
        assert 0.0 <= x < 1.0


def test_refined_potential_values():
    assert refined_potential_bound(SpectralProfile(12, 0.5, 0.375), 2.0) == pytest.approx(
        60.0 / 7.0, abs=1e-12)
    assert refined_potential_bound(SpectralProfile(4, 0.5, 0.375), 2.0) == pytest.approx(
        20.0 / 7.0, abs=1e-12)


def test_refined_never_exceeds_flat():
    # the two-point surrogate is always at least as tight as the flat profile
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(a * a, a))
        barrier_pos = float(rng.uniform(1.05, 6.0))
        prof = SpectralProfile(6, a, b)
        assert refined_potential_bound(prof, barrier_pos) <= hm_bound(prof, barrier_pos) + 1e-12


def test_shifted_min_bound():
    assert shifted_min_bound(0.5, 0.75, 0.0) == mrr_bound(0.5, 0.75)
    assert shifted_min_bound(0.5, 0.5, 0.25) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InputError):
        shifted_min_bound(0.5, 0.75, 1.0)


def test_norm_bound_shift_identity():
    # kastza and the shifted two-point minimum agree exactly at the matched
    # compression rate c = delta * trB^2 / trB2
    rng = np.random.default_rng(5)
    for _ in range(50):
        trb = float(rng.uniform(0.05, 0.95))
        trb2 = float(rng.uniform(trb * trb, trb))
        delta = float(rng.uniform(0.05, 1.0))
        c = delta * trb * trb / trb2
        lhs = kastza_bound(trb, delta, c)
        rhs = shifted_min_bound((delta - c) / delta, 1.0 - c, 1.0 - delta * trb / c)
        assert abs(lhs - rhs) <= 1e-12


def test_mrr_matches_numeric_on_two_point_spectra():
    rng = np.random.default_rng(31)
    n = 20
    for _ in range(8):
        na = int(rng.integers(1, n))
        k = int(rng.integers(na, n))
        p = RealRootedPoly((0.0,) * (n - na) + (1.0,) * na)
        numeric = optimize_barrier(p, k).bound
        closed = mrr_bound(na / n, k / n)
        # numeric sweep can only land above the closed-form infimum
        assert numeric >= closed - 1e-9
        assert numeric <= closed + 1e-6
