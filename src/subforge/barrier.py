"""Barrier-function bounds on the extreme roots of derivatives.

The central quantity is the objective smax_phi(p) - k/phi: for every phi > 0
it upper-bounds the largest root of the k-th derivative, because one
differentiation moves the soft maximum left by at least 1/phi.  This module
optimises that objective numerically and also evaluates the closed forms that
emerge for flat, zero-mean, and two-point spectral profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BarrierNotRightOfOne,
    CRangeError,
    DegenerateProfile,
    InputError,
    KOutOfRange,
)
from .realroot import (PHI_INFINITY, RealRootedPoly, _CLUSTER_TOL, _check_count, _PhiInfinity,
                       _smax_lanes, max_root, smax)


@dataclass(frozen=True)
class SpectralProfile:
    """First two normalized moments of a spectrum contained in [0, 1]."""

    n: int
    alpha: float  # mean eigenvalue
    beta: float  # mean squared eigenvalue

    def __post_init__(self):
        if self.n < 1:
            raise InputError("profile needs n >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha = {self.alpha} outside [0, 1]")
        # beta in [alpha^2, alpha] for any distribution on [0, 1]
        if self.beta > self.alpha + 1e-12 or self.beta < self.alpha**2 - 1e-12:
            raise InputError(f"beta = {self.beta} outside [alpha^2, alpha]")


@dataclass(frozen=True)
class BoundReport:
    bound: float
    optimal_b: float
    optimal_phi: float | _PhiInfinity
    formula_id: str


def barrier_bound(p: RealRootedPoly, k: int, phi) -> float:
    """smax_phi(p) - k/phi; certified upper bound on the k-th derivative's max root."""
    k = _check_count(k, 0, p.degree - 1, KOutOfRange, "derivative count")
    if phi is PHI_INFINITY:
        return max_root(p)
    return smax(p, phi) - k / phi


def optimize_barrier(p: RealRootedPoly, k: int) -> BoundReport:
    """Minimise phi -> smax_phi(p) - k/phi.

    Coarse log-spaced scan to bracket the minimum (the objective is unimodal
    for the profiles of interest, but the scan costs little and protects
    against flat stretches), then golden-section refinement on log phi.  The scan
    is one lane-wise smax solve, its phis from math.exp as g's (np.exp may move an ulp).
    """
    k = _check_count(k, 0, p.degree - 1, KOutOfRange, "derivative count")
    roots = p.as_array()
    span = float(roots[-1] - roots[0])
    if span <= _CLUSTER_TOL * max(1.0, abs(roots[-1])):
        # all roots identical: every derivative keeps the same single root
        common = max_root(p)
        return BoundReport(bound=common, optimal_b=common, optimal_phi=PHI_INFINITY,
                           formula_id="degenerate")

    n = p.degree
    lo = math.log(1e-4 * n / span)
    hi = math.log(1e7 * n / span)

    def g(logphi: float) -> float:
        phi = math.exp(logphi)
        return smax(p, phi) - k / phi

    grid = np.linspace(lo, hi, 64)
    phis = np.array([math.exp(t) for t in grid])
    i = int(np.argmin(_smax_lanes(p, phis) - k / phis))
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
    logphi = c1 if f1 <= f2 else c2
    phi = math.exp(logphi)
    opt_b = smax(p, phi)
    return BoundReport(bound=opt_b - k / phi, optimal_b=opt_b, optimal_phi=phi,
                       formula_id="barrier_numeric")


def hm_bound(profile: SpectralProfile, b: float) -> float:
    """Flat-profile potential bound n*(alpha/(b-1) + (1-alpha)/b), b > 1."""
    if not b > 1.0:
        raise BarrierNotRightOfOne(f"b = {b} must exceed 1")
    a = profile.alpha
    return profile.n * (a / (b - 1.0) + (1.0 - a) / b)


def mrr_optimal_barrier(alpha: float, c: float) -> float:
    """Argmin of b*(1-c) + c*alpha + c*alpha*(1-alpha)/(b-(1-alpha)) over b > 1."""
    if not 0.0 <= alpha <= 1.0:
        raise CRangeError(f"alpha = {alpha} outside [0, 1]")
    if not alpha <= c < 1.0:
        raise CRangeError(f"c = {c} outside [alpha, 1)")
    return (1.0 - alpha) + math.sqrt(c / (1.0 - c)) * math.sqrt(alpha * (1.0 - alpha))


def mrr_bound(alpha: float, c: float) -> float:
    """Max-root bound for a [0,1] spectrum of mean alpha after c*n derivatives."""
    if not 0.0 <= alpha <= 1.0:
        raise CRangeError(f"alpha = {alpha} outside [0, 1]")
    if not alpha <= c <= 1.0:
        raise CRangeError(f"c = {c} outside [alpha, 1]")
    return (math.sqrt((1.0 - alpha) * (1.0 - c)) + math.sqrt(alpha * c)) ** 2


def zd1_bound(c: float) -> float:
    """Zero-trace bound 2*sqrt(c - c^2) after c*n derivatives, c >= 1/2."""
    if not 0.5 <= c <= 1.0:
        raise CRangeError(f"c = {c} outside [1/2, 1]")
    return 2.0 * math.sqrt(c - c * c)


def zd3_bound(alpha: float, c: float) -> float:
    """Norm bound for keeping c*n of a positive contraction with mean alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise CRangeError(f"alpha = {alpha} outside [0, 1]")
    if not 0.0 <= c <= 1.0 - alpha:
        raise CRangeError(f"c = {c} outside [0, 1 - alpha]")
    return (math.sqrt((1.0 - c) * alpha) + math.sqrt(c * (1.0 - alpha))) ** 2


def modified_stable_rank(tr_b: float, tr_b2: float) -> float:
    """tr(B)^2 / tr(B^2) with normalized traces; lies in [tr(B), 1]."""
    if not 0.0 < tr_b <= 1.0:
        raise InputError(f"normalized trace {tr_b} outside (0, 1]")
    if tr_b2 > tr_b + 1e-12 or tr_b2 < tr_b * tr_b - 1e-12:
        raise InputError(f"normalized tr(B^2) = {tr_b2} outside [tr(B)^2, tr(B)]")
    if not tr_b2 > 0.0:  # NaN, or underflowed to zero
        raise InputError(f"normalized tr(B^2) = {tr_b2} must be positive")
    return tr_b * tr_b / tr_b2


def kastza_bound(tr_b: float, delta: float, c: float) -> float:
    """Norm bound 1 - tr(B) (sqrt(1-c) - sqrt(delta-c))^2, for c <= delta <= 1."""
    return 1.0 - bt_bound(tr_b, delta, c)


def bt_bound(tr_a: float, delta: float, c: float) -> float:
    """Least-eigenvalue bound tr(A) (sqrt(1-c) - sqrt(delta-c))^2."""
    if not 0.0 < tr_a <= 1.0:
        raise InputError(f"normalized trace {tr_a} outside (0, 1]")
    if not 0.0 < delta <= 1.0:
        raise CRangeError(f"delta = {delta} outside (0, 1]")
    if not 0.0 <= c <= delta:
        raise CRangeError(f"c = {c} outside [0, delta]")
    return tr_a * (math.sqrt(1.0 - c) - math.sqrt(delta - c)) ** 2


def xst_params(profile: SpectralProfile) -> tuple[float, float, float]:
    """Two-point surrogate (x, s, t) matching the first two moments.

    The refined potential replaces the spectrum by mass s at 1 and t = 1 - s
    at x; always 0 <= x < 1, s + t = 1.
    """
    a, b = profile.alpha, profile.beta
    if a >= 1.0 - 1e-15:
        raise DegenerateProfile("alpha = 1 leaves no mass away from 1")
    denom = 1.0 - 2.0 * a + b
    if not denom > 0.0:
        raise DegenerateProfile(f"1 - 2 alpha + beta = {denom} leaves no two-point surrogate")
    x = (a - b) / (1.0 - a)
    s = (b - a * a) / denom
    t = (1.0 - a) ** 2 / denom
    return x, s, t


def refined_potential_bound(profile: SpectralProfile, b: float) -> float:
    """Two-point potential bound n*(s/(b-1) + t/(b-x)); sharper than hm_bound."""
    if not b > 1.0:
        raise BarrierNotRightOfOne(f"b = {b} must exceed 1")
    x, s, t = xst_params(profile)
    return profile.n * (s / (b - 1.0) + t / (b - x))


def shifted_min_bound(alpha: float, c: float, x: float) -> float:
    """Min over b of the shifted objective: x + (1-x)*mrr_bound(alpha, c)."""
    if not 0.0 <= x < 1.0:
        raise InputError(f"x = {x} outside [0, 1)")
    return x + (1.0 - x) * mrr_bound(alpha, c)
