"""Quantitative Gauss-Lucas measurements on complex polynomials.

Derivatives contract the convex hull of the root set; after a constant
fraction of derivatives the contraction is by a definite factor.  This module
measures hull areas, directional spreads, and containment radii, checks the
majorization relations between real parts of roots, and generates the
near-extremal families used to probe sharpness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    CRangeError,
    DegenerateHull,
    DegreeTooSmall,
    InputError,
    RootConvergenceFailure,
    SpectrumOutOfRange,
)
from .barrier import zd1_bound
from .realroot import RealRootedPoly, derivative_roots, nth_derivative_roots

_ABERTH_SEED = 781143
_ABERTH_SWEEPS = 500
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial over C stored as coefficients, constant term first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = [complex(x) for x in self.coeffs]
        if not c:
            raise InputError("empty coefficient list")
        if not all(np.isfinite(x.real) and np.isfinite(x.imag) for x in c):
            raise InputError("coefficients must be finite")
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if len(c) == 1 and c[0] == 0:
            raise InputError("the zero polynomial has no root set")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return complex(np.polyval(np.asarray(self.coeffs[::-1]), z))


@dataclass(frozen=True)
class RootSet:
    points: tuple[complex, ...]
    residual: float


@dataclass(frozen=True)
class HullReport:
    hull_vertices: tuple[complex, ...]  # counterclockwise, strictly convex
    area: float
    centroid: complex  # mean of the input points, not of the vertices
    degenerate: bool

    def width(self, theta: float) -> float:
        """Width of the hull along direction theta, computed on demand."""
        return directional_spread(self.hull_vertices, theta)

    @property
    def span(self) -> float:
        """Diameter of the vertex set."""
        vs = self.hull_vertices
        return max((abs(a - b) for a in vs for b in vs), default=0.0)


@dataclass(frozen=True)
class ContractionReport:
    """An area, spread or disc check: the value after k derivatives, its
    guarantees at the input c and at k/n, the root sets (`after` is empty when
    k = n), and their hulls when the check needed them (None for an empty or
    real root set)."""

    k: int
    value: float
    bound: float
    bound_realized: float
    before: RootSet
    after: RootSet
    hulls: tuple[HullReport | None, HullReport | None] | None = None


def derivative(p: ComplexPoly, k: int = 1) -> ComplexPoly:
    """k-fold coefficient derivative (exact integer scaling)."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise InputError("derivative order must be a nonnegative integer")
    if k > p.degree:
        raise DegreeTooSmall(f"order {k} exceeds degree {p.degree}")
    c = list(p.coeffs)
    for _ in range(k):
        c = [c[j + 1] * (j + 1) for j in range(len(c) - 1)]
    if len(c) == 1 and c[0] == 0:
        raise DegreeTooSmall("derivative vanished identically")
    return ComplexPoly(tuple(c))


def _horner(cols: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows p, p', coeffs at z and |coeffs| at |z| of `cols` ((n+1, 4, 1), highest
    power first) in one Horner loop, each with np.polyval's operations."""
    x = np.vstack([z, z, z, np.abs(z)])
    y = np.zeros_like(x)
    for c in cols:
        y *= x
        y += c
    if not np.all(np.isfinite(y[3])):
        # after an overflow, complex inf*0 makes NaN where a real row stays inf
        y[3] = np.polyval(cols[:, 3, 0].real, x[3].real)
    return y


def _residuals(y: np.ndarray) -> np.ndarray:
    # scale by sum_j |c_j||z|^j, the conditioning of evaluation at z; a flat
    # max|c_j| scale is vacuous when derivative coefficients span many orders
    return np.abs(y[2]) / np.maximum(y[3].real, 1e-300)


def complex_roots(p: ComplexPoly) -> RootSet:
    """All roots by Aberth-Ehrlich simultaneous iteration.

    Starts from a perturbed circle around the root mean (fixed seed, so runs
    are reproducible), iterates at most 500 sweeps, then polishes with Newton
    where that lowers the residual.  Multiple roots converge linearly and land
    in a cluster whose symmetric functions are still accurate; per-root error
    for an m-fold root is O(residual^(1/m)).
    """
    if p.degree < 1:
        raise DegreeTooSmall("need degree >= 1 to extract roots")
    coeffs = np.asarray(p.coeffs, dtype=complex)
    n = p.degree
    monic = coeffs / coeffs[-1]
    dmonic = monic[1:] * np.arange(1, n + 1)
    # p' gets an exact zero leading coefficient; |.| is taken of the reversed
    # view, as np.abs rounds strided and contiguous complex arrays differently
    rev = coeffs[::-1]
    cols = np.stack([monic[::-1], np.append(0, dmonic[::-1]), rev, np.abs(rev)], axis=1)[:, :, None]
    if n == 1:
        z = np.array([-coeffs[0] / coeffs[1]])
        return RootSet(tuple(z), float(_residuals(_horner(cols, z))[0]))

    center = -monic[-2] / n
    fuji = 2.0 * max(abs(monic[n - i]) ** (1.0 / i) for i in range(1, n + 1))
    radius = max(fuji + abs(center), 1e-3)

    rng = np.random.default_rng(_ABERTH_SEED)
    angles = 2.0 * np.pi * (np.arange(n) + 0.123) / n
    angles = angles + (0.37 * 2.0 * np.pi / n) * rng.uniform(-0.5, 0.5, n)
    z = center + radius * np.exp(1j * angles)

    y = _horner(cols, z)
    for _ in range(_ABERTH_SWEEPS):
        w = y[0] / np.where(y[1] == 0, 1e-300, y[1])
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        z = z - w / denom
        y = _horner(cols, z)
        res = _residuals(y)
        if np.max(res) <= _RESIDUAL_TOL:
            break
    if not np.max(res) <= _RESIDUAL_TOL:  # also raises on a NaN residual
        raise RootConvergenceFailure(
            f"residual {np.max(res):.3e} after {_ABERTH_SWEEPS} sweeps")

    # Newton polish, kept only when it helps (it stalls at multiple roots)
    for _ in range(3):
        pv, dv = y[0], y[1]
        safe = np.abs(dv) > 1e-300
        cand = np.where(safe, z - np.where(safe, pv / np.where(safe, dv, 1.0), 0.0), z)
        y_cand = _horner(cols, cand)
        better = _residuals(y_cand) <= _residuals(y)
        z = np.where(better, cand, z)
        y = np.where(better, y_cand, y)

    order = np.lexsort((z.imag, z.real))
    return RootSet(tuple(complex(v) for v in z[order]), float(np.max(_residuals(y))))


def real_part_poly(p: ComplexPoly) -> RealRootedPoly:
    """Monic real-rooted polynomial whose roots are Re(root) of p."""
    rs = complex_roots(p)
    return RealRootedPoly(tuple(v.real for v in rs.points))


_MAJORIZATION_SLACK = 1e-8  # prefix-sum slack, relative to max(1, max |entry|)


def majorizes(mu, lam) -> bool:
    """True when lam majorizes mu: descending prefix sums of mu never exceed
    lam's, and the totals agree.  Comparison slack is 1e-8 * max(1, scale)."""
    mu = np.sort(np.asarray(mu, dtype=float))[::-1]
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    if mu.shape != lam.shape:
        raise InputError("sequences must have equal length")
    scale = max(1.0, float(np.max(np.abs(mu), initial=0.0)),
                float(np.max(np.abs(lam), initial=0.0)))
    slack = _MAJORIZATION_SLACK * scale
    pm, pl = np.cumsum(mu), np.cumsum(lam)
    if np.any(pm[:-1] > pl[:-1] + slack):
        return False
    return bool(abs(pm[-1] - pl[-1]) <= slack)


def check_pereira(p: ComplexPoly) -> bool:
    """Real parts of D(p) roots are majorized by the derivative of Re-roots."""
    if p.degree < 2:
        raise DegreeTooSmall("need degree >= 2")
    left = [v.real for v in complex_roots(derivative(p)).points]
    right = derivative_roots(real_part_poly(p)).roots
    return majorizes(left, right)


def check_chain(p: ComplexPoly, k: int) -> bool:
    """Majorization chain from R D^k p up to D^k R p, pairwise.

    Term j applies k - j coefficient derivatives, takes real parts of roots,
    then j root-space derivatives; adjacent terms must majorize in order.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InputError("k must be an integer")
    if not 1 <= k <= p.degree - 1:
        raise InputError(f"k = {k} outside [1, {p.degree - 1}]")
    terms = []
    for j in range(k + 1):
        q = derivative(p, k - j) if k - j > 0 else p
        r = real_part_poly(q)
        terms.append(nth_derivative_roots(r, j).roots)
    return all(majorizes(terms[j], terms[j + 1]) for j in range(k))


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def hull(points) -> HullReport:
    """Convex hull (monotone chain), counterclockwise and strictly convex.

    Area by the shoelace formula; collinear root sets come back flagged
    degenerate with zero area.  The centroid is the mean of all input points.
    """
    if isinstance(points, RootSet):
        pts = list(points.points)
    else:
        pts = [complex(z) for z in points]
    if not pts:
        raise InputError("empty point set")
    centroid = complex(np.mean(np.asarray(pts)))
    spread = max((abs(z - centroid) for z in pts), default=0.0)
    eps = 1e-12 * max(1.0, spread) ** 2

    uniq = sorted(set((z.real, z.imag) for z in pts))
    uniq = [complex(x, y) for x, y in uniq]
    if len(uniq) == 1:
        return HullReport((uniq[0],), 0.0, centroid, True)

    def chain(seq):
        out = []
        for z in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], z) <= eps:
                out.pop()
            out.append(z)
        return out

    lower = chain(uniq)
    upper = chain(reversed(uniq))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        ends = (uniq[0], uniq[-1])
        return HullReport(ends, 0.0, centroid, True)

    area = 0.0
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        area += v.real * w.imag - w.real * v.imag
    return HullReport(tuple(verts), 0.5 * area, centroid, False)


def hull_contains(report: HullReport, z: complex, slack: float = 1e-8) -> bool:
    """Point-in-hull test with absolute slack on the supporting inequalities."""
    verts = report.hull_vertices
    if report.degenerate:
        if len(verts) == 1:
            return abs(z - verts[0]) <= slack
        a, b = verts[0], verts[-1]
        ab = b - a
        t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / max(abs(ab) ** 2, 1e-300)
        t = min(max(t, 0.0), 1.0)
        return abs(z - (a + t * ab)) <= slack
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        if _cross(a, b, z) < -slack * max(1.0, abs(b - a)):
            return False
    return True


def directional_spread(rs, theta: float) -> float:
    """Width of the root set along direction theta: max - min of Re(e^{-i theta} z)."""
    pts = rs.points if isinstance(rs, RootSet) else tuple(rs)
    if not pts:
        raise InputError("empty point set")
    proj = [(complex(z) * np.exp(-1j * theta)).real for z in pts]
    return max(proj) - min(proj)


def area_bound(c: float) -> float:
    """Guaranteed hull-area ratio after a fraction c of derivatives:
    4(c - c^2) for c >= 1/2, the trivial 1 below."""
    return 4.0 * (c - c * c) if c >= 0.5 else 1.0


def spread_bound(c: float) -> float:
    """Guaranteed spread (or disc radius) ratio after a fraction c of
    derivatives: 2 sqrt(c - c^2) for c >= 1/2, the trivial 1 below."""
    return zd1_bound(c) if c >= 0.5 else 1.0


def _contraction(n: int, c: float, k: int, bound, value: float, slack: float, label: str,
                 before: RootSet, after: RootSet, hulls=None) -> ContractionReport:
    """The report of `value`, found after k of n derivatives.  Raises BoundViolation when
    value exceeds bound(k/n), the guarantee at the realized fraction, by more than slack."""
    guaranteed = bound(k / n)
    if value > guaranteed + slack:
        raise BoundViolation(f"{label} {value} exceeds guaranteed {guaranteed}")
    return ContractionReport(k, value, bound(c), guaranteed, before, after, hulls)


def gl_area_report(p: ComplexPoly, c: float) -> ContractionReport:
    """Hull-area contraction after ceil(c*n) derivatives, with its 4(c - c^2) bound.

    The bound is at the input c; the realized derivative fraction ceil(c*n)/n
    is at least c, so the input-c bound is the weaker, safe claim.
    """
    n = p.degree
    if n < 4:
        raise DegreeTooSmall("need degree >= 4")
    if not 0.5 <= c < 1.0:
        raise CRangeError(f"c = {c} outside [1/2, 1)")
    before = complex_roots(p)
    h0 = hull(before)
    if h0.degenerate or h0.area <= 1e-10 * h0.span**2:
        raise DegenerateHull("initial root hull is degenerate")
    k = math.ceil(c * n)
    # at k = n the derivative is a nonzero constant: empty root set, area 0
    after = complex_roots(derivative(p, k)) if k < n else RootSet((), 0.0)
    hk = hull(after) if k < n else None
    ratio = hk.area / h0.area if k < n else 0.0
    return _contraction(n, c, k, area_bound, ratio, 1e-6, "area ratio", before, after, (h0, hk))


def gl_area_ratio(p: ComplexPoly, c: float) -> tuple[float, float]:
    """(ratio, bound at the input c) of `gl_area_report`."""
    r = gl_area_report(p, c)
    return r.value, r.bound


def rr_spread_report(p: RealRootedPoly, c: float) -> ContractionReport:
    """Root-spread contraction after floor(c*n) derivatives vs 2*sqrt(c - c^2).

    The guard's realized fraction floor(c*n)/n may fall below 1/2, where the
    factor is the trivial 1.  The root sets are real, so there are no hulls.
    """
    n = p.degree
    if not 0.5 <= c < 1.0:
        raise CRangeError(f"c = {c} outside [1/2, 1)")
    spread0 = p.roots[-1] - p.roots[0]
    if spread0 <= 1e-12 * max(1.0, abs(p.roots[-1])):
        # 0/0 contraction carries no information either way
        raise DegenerateHull("zero initial spread")
    k = math.floor(c * n)
    q = nth_derivative_roots(p, k)
    ratio = (q.roots[-1] - q.roots[0]) / spread0
    before, after = (RootSet(tuple(complex(r) for r in poly.roots), 0.0) for poly in (p, q))
    return _contraction(n, c, k, spread_bound, ratio, 1e-8, "spread ratio", before, after,
                        (None, None))


def rr_spread_ratio(p: RealRootedPoly, c: float) -> tuple[float, float]:
    """(ratio, bound at the input c) of `rr_spread_report`."""
    r = rr_spread_report(p, c)
    return r.value, r.bound


def disc_report(p: ComplexPoly, c: float) -> ContractionReport:
    """Max root modulus after floor(c*n) derivatives for unit-disc, zero-mean roots.

    The mean is -c_{n-1}/(n c_n) (Vieta); the computed roots' own mean drifts."""
    n = p.degree
    if n < 2:
        raise DegreeTooSmall("need degree >= 2")
    if not 0.5 <= c < 1.0:
        raise CRangeError(f"c = {c} outside [1/2, 1)")
    rs = complex_roots(p)
    if np.max(np.abs(np.asarray(rs.points))) > 1.0 + 1e-8:
        raise SpectrumOutOfRange("roots must lie in the closed unit disc")
    if abs(p.coeffs[-2] / (n * p.coeffs[-1])) > 1e-8:
        raise SpectrumOutOfRange("root mean must vanish")
    k = math.floor(c * n)
    dk = complex_roots(derivative(p, k))
    maxmod = float(np.max(np.abs(np.asarray(dk.points))))
    return _contraction(n, c, k, spread_bound, maxmod, 1e-6, "max modulus", rs, dk)


def disc_containment(p: ComplexPoly, c: float) -> tuple[float, float]:
    """(max modulus, bound at the input c) of `disc_report`."""
    r = disc_report(p, c)
    return r.value, r.bound


def sharpness_experiment(m: int, c: float) -> float:
    """Area ratio for (z^3 - 1)^m after 3*floor(c*m) derivatives.

    The equilateral family approaching the (1-c)^(4/3) lower bound.  The
    derivative count is a multiple of 3 so the rotational symmetry survives.
    The initial hull is the exact unit triangle (the construction roots are
    known; a numeric finder would smear an m-fold root cluster), while the
    derivative's roots are genuinely computed.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise InputError("m must be a positive integer")
    if not 0.0 < c < 1.0:
        raise CRangeError(f"c = {c} outside (0, 1)")
    k = 3 * math.floor(c * m)
    if k == 0:
        raise DegenerateHull("derivative count rounds to zero")
    n = 3 * m
    if n - k < 3:
        raise DegenerateHull("derivative would have fewer than 3 roots")
    coeffs = [0j] * (n + 1)
    for j in range(m + 1):
        coeffs[3 * j] = complex(math.comb(m, j) * ((-1) ** (m - j)))
    p = ComplexPoly(tuple(coeffs))
    omega = np.exp(2j * np.pi / 3)
    base = hull([1.0 + 0j, omega, omega**2])
    hk = hull(complex_roots(derivative(p, k)))
    ratio = hk.area / base.area
    if ratio > 1.0 + 1e-9:
        raise BoundViolation("derivative hull exceeded the original hull")
    return ratio
