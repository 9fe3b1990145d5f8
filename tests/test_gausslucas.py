"""Complex root finding, hull geometry, and the contraction ratio checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subforge.errors import (
    BoundViolation,
    CRangeError,
    DegenerateHull,
    DegreeTooSmall,
    InputError,
    RootConvergenceFailure,
    SpectrumOutOfRange,
)
from subforge.gausslucas import (
    ComplexPoly,
    HullReport,
    RootSet,
    check_chain,
    check_pereira,
    complex_roots,
    derivative,
    directional_spread,
    disc_report,
    gl_area_report,
    hull,
    hull_contains,
    majorizes,
    real_part_poly,
    rr_spread_report,
    sharpness_experiment,
)
from subforge.realroot import RealRootedPoly

pc = np.polynomial.polynomial


def cube_roots_poly(m: int = 1) -> ComplexPoly:
    # (z^3 - 1)^m by binomial expansion, exact integer coefficients
    coeffs = [0j] * (3 * m + 1)
    for j in range(m + 1):
        coeffs[3 * j] = complex(math.comb(m, j) * (-1) ** (m - j))
    return ComplexPoly(tuple(coeffs))


def test_complex_poly_normalization():
    p = ComplexPoly((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p(3.0) == 7 + 0j
    with pytest.raises(InputError):
        ComplexPoly(())
    with pytest.raises(InputError):
        ComplexPoly((0.0, 0.0))


def test_derivative_exact():
    p = ComplexPoly((-1.0, 0.0, 0.0, 1.0))  # z^3 - 1
    assert derivative(p).coeffs == (0j, 0j, 3 + 0j)
    assert derivative(p, 3).coeffs == (6 + 0j,)
    with pytest.raises(DegreeTooSmall):
        derivative(p, 4)
    with pytest.raises(InputError):
        derivative(p, -1)


def test_complex_roots_quadratic():
    rs = complex_roots(ComplexPoly((1.0, 0.0, 1.0)))  # z^2 + 1
    assert rs.points == pytest.approx((-1j, 1j), abs=1e-12)
    assert rs.residual <= 1e-12


def test_complex_roots_cube():
    rs = complex_roots(cube_roots_poly())
    expect = sorted((np.exp(2j * np.pi * j / 3) for j in range(3)),
                    key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.asarray(rs.points) - np.asarray(expect))) <= 1e-10


def test_complex_roots_multiple_root():
    # (z-2)^4: individual roots smear like residual^(1/4), while the
    # symmetric cluster keeps its mean and product orders tighter
    coeffs = tuple(pc.polyfromroots([2.0] * 4))
    rs = complex_roots(ComplexPoly(coeffs))
    assert abs(np.mean(rs.points) - 2.0) <= 1e-6
    assert abs(np.prod(rs.points) - 16.0) <= 1e-5
    assert np.max(np.abs(np.asarray(rs.points) - 2.0)) <= 1e-2


def test_complex_roots_deterministic():
    coeffs = tuple(pc.polyfromroots([0.3 + 0.1j, -0.5, 0.9j, -0.2 - 0.7j]))
    a = complex_roots(ComplexPoly(coeffs))
    b = complex_roots(ComplexPoly(coeffs))
    assert a.points == b.points
    assert a.residual == b.residual


def test_complex_roots_random_reconstruction():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        zs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        rs = complex_roots(ComplexPoly(tuple(pc.polyfromroots(zs))))
        got = sorted(rs.points, key=lambda z: (z.real, z.imag))
        want = sorted(zs, key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-6


def _reference_residuals(coeffs, z):
    scale = np.polyval(np.abs(coeffs[::-1]), np.abs(z))
    vals = np.polyval(coeffs[::-1], z)
    return np.abs(vals) / np.maximum(scale, 1e-300)


def _reference_complex_roots(p):
    """Aberth sweeps and Newton polish with four np.polyval calls per sweep:
    the loop that complex_roots must reproduce bit for bit."""
    coeffs = np.asarray(p.coeffs, dtype=complex)
    n = p.degree
    if n == 1:
        z = np.array([-coeffs[0] / coeffs[1]])
        return RootSet(tuple(z), float(_reference_residuals(coeffs, z)[0]))
    monic = coeffs / coeffs[-1]
    dmonic = monic[1:] * np.arange(1, n + 1)
    center = -monic[-2] / n
    fuji = 2.0 * max(abs(monic[n - i]) ** (1.0 / i) for i in range(1, n + 1))
    radius = max(fuji + abs(center), 1e-3)
    rng = np.random.default_rng(781143)
    angles = 2.0 * np.pi * (np.arange(n) + 0.123) / n
    angles = angles + (0.37 * 2.0 * np.pi / n) * rng.uniform(-0.5, 0.5, n)
    z = center + radius * np.exp(1j * angles)
    ok = False
    for _ in range(500):
        pv = np.polyval(monic[::-1], z)
        dv = np.polyval(dmonic[::-1], z)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        z = z - w / denom
        if np.max(_reference_residuals(coeffs, z)) <= 1e-9:
            ok = True
            break
    if not ok and np.max(_reference_residuals(coeffs, z)) > 1e-9:
        raise RootConvergenceFailure(
            f"residual {np.max(_reference_residuals(coeffs, z)):.3e} after 500 sweeps")
    for _ in range(3):
        pv = np.polyval(monic[::-1], z)
        dv = np.polyval(dmonic[::-1], z)
        safe = np.abs(dv) > 1e-300
        cand = np.where(safe, z - np.where(safe, pv / np.where(safe, dv, 1.0), 0.0), z)
        better = _reference_residuals(coeffs, cand) <= _reference_residuals(coeffs, z)
        z = np.where(better, cand, z)
    z = z[np.lexsort((z.imag, z.real))]
    return RootSet(tuple(complex(v) for v in z),
                   float(np.max(_reference_residuals(coeffs, z))))


def _hexes(rs):
    return [(z.real.hex(), z.imag.hex()) for z in rs.points], rs.residual.hex()


def _assert_matches_reference(p):
    try:
        want = _reference_complex_roots(p)
    except RootConvergenceFailure as exc:
        with pytest.raises(RootConvergenceFailure) as got:
            complex_roots(p)
        assert str(got.value) == str(exc)
        return
    if math.isnan(want.residual):
        # the frozen loop lets a NaN residual through; complex_roots raises
        with pytest.raises(RootConvergenceFailure):
            complex_roots(p)
        return
    assert _hexes(complex_roots(p)) == _hexes(want)


@st.composite
def _aberth_polys(draw):
    """Degree 1-100: unit-disc roots, an m-fold root (z-a)^m among them, or
    (z^3-1)^m; coefficients scaled by 1e-100..1e100."""
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    kind = draw(st.sampled_from(("disc", "power", "cube")))
    if kind == "cube":
        return ComplexPoly(tuple(scale * c for c in cube_roots_poly(draw(st.integers(1, 33))).coeffs))
    n = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    if kind == "power":
        roots[:draw(st.integers(1, n))] = roots[0]
    return ComplexPoly(tuple(scale * pc.polyfromroots(roots)))


@settings(max_examples=120, deadline=None)
@given(_aberth_polys())
def test_complex_roots_matches_reference(p):
    _assert_matches_reference(p)


def _disc_poly(radius, n, scale=1.0, seed=3):
    rng = np.random.default_rng(seed)
    roots = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return ComplexPoly(tuple(scale * pc.polyfromroots(roots)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [
    # z^20 + 1e100 z^5 and z^8 + 1e200 z^2 stall: RootConvergenceFailure
    ComplexPoly(tuple([0.0] * 5 + [1e100] + [0.0] * 14 + [1.0])),
    ComplexPoly((0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
    # radius 10, degree 100, scale 1e100: the residual's scale sum overflows
    # on the early sweeps, yet the roots converge
    _disc_poly(10.0, 100, 1e100),
    # radius 100, degree 100: p overflows at the start and every sweep is NaN,
    # which raises RootConvergenceFailure
    _disc_poly(100.0, 100),
    # 1e170 z^4 (z - 1e57) stalls with the scale sum overflowing mid-loop,
    # where complex inf*0 would give NaN and let it through unraised
    ComplexPoly(tuple(1e170 * pc.polyfromroots([0.0, 0.0, 0.0, 0.0, 1e57]))),
])
def test_complex_roots_matches_reference_at_extremes(p):
    _assert_matches_reference(p)


def test_real_part_poly():
    p = ComplexPoly(tuple(pc.polyfromroots([1 + 2j, 1 - 2j, 3.0])))
    r = real_part_poly(p)
    assert r.roots == pytest.approx((1.0, 1.0, 3.0), abs=1e-8)


def test_majorizes_basic():
    assert majorizes([1.0, 1.0], [2.0, 0.0])
    assert not majorizes([2.0, 0.0], [1.0, 1.0])
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    assert not majorizes([1.0, 0.0], [0.5, 0.5])  # prefix 1.0 > 0.5
    with pytest.raises(InputError):
        majorizes([1.0], [0.5, 0.5])


def test_check_pereira_cube():
    # roots of D(z^3-1) are {0,0}; derivative of Re-roots poly gives {-1/2, 1/2}
    assert check_pereira(cube_roots_poly())
    with pytest.raises(DegreeTooSmall):
        check_pereira(ComplexPoly((1.0, 1.0)))


def test_check_chain_random():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        zs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        p = ComplexPoly(tuple(pc.polyfromroots(zs)))
        k = int(rng.integers(1, n - 1))
        assert check_chain(p, k)
    with pytest.raises(InputError):
        check_chain(p, 0)
    with pytest.raises(InputError):
        check_chain(p, p.degree)


def test_check_chain_k1_matches_pereira():
    zs = [0.4 + 0.3j, -0.6, 0.1 - 0.8j, 0.7j]
    p = ComplexPoly(tuple(pc.polyfromroots(zs)))
    assert check_chain(p, 1) == check_pereira(p)


def test_hull_triangle():
    # cube roots of unity: equilateral triangle of area 3 sqrt(3) / 4
    pts = [np.exp(2j * np.pi * j / 3) for j in range(3)]
    h = hull(pts)
    assert not h.degenerate
    assert len(h.hull_vertices) == 3
    assert h.area == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-12)
    assert abs(h.centroid) <= 1e-12


def test_hull_square_with_interior_point():
    pts = [0, 2, 2j, 2 + 2j, 1 + 1j]
    h = hull(pts)
    assert len(h.hull_vertices) == 4
    assert h.area == pytest.approx(4.0, abs=1e-12)
    # centroid is the mean of all inputs, interior point included
    assert h.centroid == pytest.approx((5 + 5j) / 5, abs=1e-12)
    assert directional_spread(h.hull_vertices, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert h.span == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_hull_counterclockwise_and_strict():
    rng = np.random.default_rng(53)
    pts = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    h = hull(pts)
    verts = h.hull_vertices
    m = len(verts)
    for i in range(m):
        a, b, c = verts[i], verts[(i + 1) % m], verts[(i + 2) % m]
        turn = (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)
        assert turn > 0.0  # strictly convex, counterclockwise


def test_hull_degenerate_cases():
    h1 = hull([1 + 1j, 1 + 1j])
    assert h1.degenerate and h1.area == 0.0 and h1.hull_vertices == (1 + 1j,)
    h2 = hull([0.0, 1.0, 2.0, 3.0])
    assert h2.degenerate and h2.area == 0.0
    assert h2.hull_vertices == (0 + 0j, 3 + 0j)
    with pytest.raises(InputError):
        hull([])


def test_hull_contains():
    h = hull([0, 2, 2j, 2 + 2j])
    assert hull_contains(h, 1 + 1j)
    assert hull_contains(h, 0.0)  # vertex counts as inside
    assert not hull_contains(h, 3 + 1j)
    seg = hull([0.0, 1.0])
    assert hull_contains(seg, 0.5)
    assert not hull_contains(seg, 0.5 + 0.1j)


def test_directional_spread():
    rs = RootSet((-1 + 0j, 1 + 0j), 0.0)
    assert directional_spread(rs, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert directional_spread(rs, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    pts = [np.exp(2j * np.pi * j / 3) for j in range(3)]
    assert directional_spread(pts, 0.0) == pytest.approx(1.5, abs=1e-12)


def test_gl_area_ratio_fourth_roots():
    p = ComplexPoly(tuple(pc.polyfromroots([1, -1, 1j, -1j])))
    r = gl_area_report(p, 0.5)
    assert r.bound == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= r.value <= 1.0 + 1e-9
    with pytest.raises(CRangeError):
        gl_area_report(p, 0.4)
    with pytest.raises(DegreeTooSmall):
        gl_area_report(ComplexPoly(tuple(pc.polyfromroots([1, -1, 1j]))), 0.5)


def test_gl_area_ratio_cube_family():
    # (z^3-1)^10 at c = 2/3 sits near the sharpness value (1/3)^(4/3)
    r = gl_area_report(cube_roots_poly(10), 2.0 / 3.0)
    assert r.bound == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert (1.0 / 3.0) ** (4.0 / 3.0) - 0.05 <= r.value <= r.bound + 1e-9


def test_gl_area_ratio_random_disc():
    rng = np.random.default_rng(59)
    zs = np.sqrt(rng.uniform(0, 1, 24)) * np.exp(2j * np.pi * rng.uniform(0, 1, 24))
    p = ComplexPoly(tuple(pc.polyfromroots(zs)))
    r = gl_area_report(p, 0.75)
    assert r.bound == pytest.approx(0.75, abs=1e-12)
    assert r.value <= r.bound + 1e-6


def test_gl_area_ratio_derivative_exhausts_degree():
    # c = 0.9 with degree 8 rounds up to k = 8: empty root set, zero area
    rng = np.random.default_rng(61)
    zs = 0.5 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
    r = gl_area_report(ComplexPoly(tuple(pc.polyfromroots(zs))), 0.9)
    assert r.value == 0.0
    assert r.bound == pytest.approx(4 * (0.9 - 0.81), abs=1e-12)


def test_gl_area_degenerate_input():
    p = ComplexPoly(tuple(pc.polyfromroots([0.0, 0.1, 0.2, 0.3, 0.4])))
    with pytest.raises(DegenerateHull):
        gl_area_report(p, 0.5)


def test_directional_width_never_beats_spread_bound():
    # hull widths of the contracted root set obey the spread bound per direction
    rng = np.random.default_rng(67)
    zs = np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
    p = ComplexPoly(tuple(pc.polyfromroots(zs)))
    c = 0.75
    k = math.floor(c * 16)
    h0 = hull(complex_roots(p))
    hk = hull(complex_roots(derivative(p, k)))
    bound = 2.0 * math.sqrt(c - c * c)
    for theta in np.linspace(0.0, math.pi, 180):
        w0 = directional_spread(h0.hull_vertices, theta)
        assert directional_spread(hk.hull_vertices, theta) <= bound * w0 + 1e-6 * max(1.0, w0)


def test_rr_spread_ratio_two_point():
    p = RealRootedPoly((-1.0,) * 10 + (1.0,) * 10)
    r = rr_spread_report(p, 0.75)
    assert r.bound == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert 0.48 <= r.value <= r.bound + 1e-9


def test_rr_spread_ratio_windows():
    # the two-point family stays inside [sqrt(1-c) - 0.05, 2 sqrt(c - c^2)]
    for m in (5, 8, 12, 20):
        p = RealRootedPoly((-1.0,) * m + (1.0,) * m)
        r = rr_spread_report(p, 0.75)
        assert 0.45 <= r.value <= r.bound + 1e-9


def test_rr_spread_degenerate():
    with pytest.raises(DegenerateHull):
        rr_spread_report(RealRootedPoly((0.0,) * 6), 0.75)
    with pytest.raises(CRangeError):
        rr_spread_report(RealRootedPoly((-1.0, 1.0, 2.0)), 0.3)


def test_disc_containment_pure_power():
    # z^n has all derivative roots at the origin
    p = ComplexPoly((0.0,) * 8 + (1.0,))
    r = disc_report(p, 0.5)
    assert r.value <= 1e-12
    assert r.bound == pytest.approx(1.0, abs=1e-12)


def test_disc_containment_symmetric():
    # simple roots in +-z pairs: exactly zero mean, all inside the disc
    zs = [0.8, 0.5j, 0.3 + 0.2j, 0.1 - 0.6j, 0.55 + 0.4j]
    p = ComplexPoly(tuple(pc.polyfromroots(zs + [-z for z in zs])))
    r = disc_report(p, 0.7)
    assert r.value <= r.bound + 1e-6
    assert r.bound == pytest.approx(2 * math.sqrt(0.7 - 0.49), abs=1e-12)


def test_disc_containment_accepts_clustered_zero_mean():
    # a multiplicity-5 cluster recovers its mean only to ~1e-7, but the
    # zero-mean precondition reads the mean from the coefficients (Vieta)
    p = ComplexPoly(tuple(pc.polyfromroots([0.8, -0.8] * 5)))
    r = disc_report(p, 0.7)
    assert r.value == pytest.approx(0.462, abs=5e-4)
    assert r.bound == pytest.approx(0.9165, abs=5e-5)


def test_disc_containment_rejects_shifted_cluster():
    p = ComplexPoly(tuple(pc.polyfromroots([0.8 + 1e-6, -0.8 + 1e-6] * 5)))
    with pytest.raises(SpectrumOutOfRange):
        disc_report(p, 0.7)


# degree 74, uniform in the unit disc, rounded to 1e-3: built as the benchmark's
# disc inputs are (centred, scaled to max modulus 0.95), its Aberth roots' mean
# is 5.4e-7 off zero while the coefficients give 1.3e-17
_DISC_74_RE = (
    151, -44, -866, 444, 369, 282, -320, 261, 332, 338, -371, -369, 163, -162, -595, 155,
    485, 359, 334, -637, -110, -814, 590, -319, -580, 0, 459, -47, 496, -230, 978, -637,
    -549, 52, 766, -869, -415, 550, 27, -974, 837, -450, 459, 571, 591, 482, 866, 447,
    726, -594, -284, -346, -287, 304, 735, 718, -993, -231, 20, -309, -67, -419, 344, 759,
    -46, 496, -723, 796, 237, -570, -559, 195, 401, -47,
)
_DISC_74_IM = (
    842, 948, 12, 829, -303, -810, -739, -463, 416, 852, 280, 498, -624, -530, -1, 848,
    -309, -647, -104, 141, -870, 416, -9, -392, 630, -558, 104, -603, -326, 415, 164, 425,
    772, 626, -548, -13, 543, -137, -775, -218, 23, 856, -296, 570, 674, -751, 285, -581,
    -268, 707, 200, 753, 514, 349, -259, -529, -13, 586, -149, 593, -434, 747, -798, -465,
    -421, -291, 683, -74, -938, -12, -413, -356, 29, 371,
)


def test_disc_report_accepts_high_degree_centred_roots():
    z = (np.array(_DISC_74_RE) + 1j * np.array(_DISC_74_IM)) / 1000.0
    z = z - z.mean()
    z = z * (0.95 / np.max(np.abs(z)))
    r = disc_report(ComplexPoly(tuple(pc.polyfromroots(z))), 0.75)
    assert r.k == 55
    assert r.value == pytest.approx(0.3259, abs=5e-4)
    assert r.value <= r.bound_realized


def test_disc_containment_random_centered():
    # degree 10 so floor(0.7 n) / n is exactly the requested fraction
    rng = np.random.default_rng(71)
    zs = np.sqrt(rng.uniform(0, 1, 9)) * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
    zs = np.concatenate([zs, [-np.sum(zs)]])  # zero mean by construction
    zs /= max(1.0, np.max(np.abs(zs)))
    p = ComplexPoly(tuple(pc.polyfromroots(zs)))
    r = disc_report(p, 0.7)
    assert r.value <= r.bound + 1e-6


def test_disc_containment_validation():
    p = ComplexPoly(tuple(pc.polyfromroots([2.0, -2.0])))
    with pytest.raises(SpectrumOutOfRange):
        disc_report(p, 0.5)  # roots outside the unit disc
    q = ComplexPoly(tuple(pc.polyfromroots([0.5, 0.5])))
    with pytest.raises(SpectrumOutOfRange):
        disc_report(q, 0.5)  # mean off zero


def test_sharpness_experiment_values():
    r = sharpness_experiment(10, 0.5)
    assert 0.347 <= r <= 1.0
    r2 = sharpness_experiment(12, 2.0 / 3.0)
    assert (1.0 / 3.0) ** (4.0 / 3.0) - 0.05 <= r2 <= 8.0 / 9.0


def test_sharpness_experiment_guards():
    # floor(c*m) = 0 in both cases: no derivative would be taken
    with pytest.raises(DegenerateHull):
        sharpness_experiment(1, 0.5)
    with pytest.raises(DegenerateHull):
        sharpness_experiment(4, 0.05)
    with pytest.raises(InputError):
        sharpness_experiment(0, 0.5)
    with pytest.raises(CRangeError):
        sharpness_experiment(8, 1.0)
