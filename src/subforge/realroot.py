"""Real-rooted polynomials represented by their root multisets.

Coefficients are never formed here: differentiation and barrier evaluations
work directly on roots, which keeps multiple roots exact (a root of
multiplicity m contributes m - 1 exact copies to the derivative) and avoids
the coefficient blow-up that makes expanded representations useless past
degree ~25.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BarrierNotRightOfRoots,
    DegreeTooSmall,
    DerivativeOrderTooLarge,
    InputError,
    NonPositivePhi,
)


class _PhiInfinity:
    """Sentinel for an infinite barrier potential (smax degenerates to max_root)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PHI_INFINITY"


PHI_INFINITY = _PhiInfinity()


@dataclass(frozen=True)
class RealRootedPoly:
    """Monic real-rooted polynomial, stored as its ascending root multiset."""

    roots: tuple[float, ...]

    def __post_init__(self):
        if len(self.roots) < 1:
            raise DegreeTooSmall("a real-rooted polynomial needs degree >= 1")
        arr = np.asarray(self.roots, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InputError("roots must be finite")
        object.__setattr__(self, "roots", tuple(float(r) for r in np.sort(arr)))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.roots, dtype=float)


def max_root(p: RealRootedPoly) -> float:
    return p.roots[-1]


_GAP_TOL = 1e-13  # least admissible distance from a barrier to the largest root


def potential(p: RealRootedPoly, b: float) -> float:
    """Barrier potential p'(b)/p(b) = sum 1/(b - root_i), for b above all roots."""
    top = max_root(p)
    if not (b > top + _GAP_TOL):
        raise BarrierNotRightOfRoots(f"b = {b} is not right of the largest root {top}")
    return float(np.sum(1.0 / (b - p.as_array())))


def _check_count(k, lo: int, hi: int, exc: type, what: str) -> int:
    """Validate an integer count in [lo, hi]; failures raise the caller's `exc`."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise exc(f"{what} must be an integer")
    if not lo <= k <= hi:
        raise exc(f"{what} {k} outside [{lo}, {hi}]")
    return int(k)


def _check_phi(phi) -> None:
    if isinstance(phi, bool) or not isinstance(phi, (int, float, np.floating)):
        raise NonPositivePhi(f"phi must be a positive finite real, got {phi!r}")
    if not np.isfinite(phi) or phi <= 0:
        raise NonPositivePhi(f"phi must be a positive finite real (use PHI_INFINITY), got {phi}")


_PHI_TOL = 1e-10  # relative accuracy of a potential-equation solve


def smax(p: RealRootedPoly, phi) -> float:
    """Soft maximum: the unique b > max_root with potential(p, b) = phi.

    Solved in the shifted coordinate u = b - max_root, which sidesteps the
    cancellation in b - root when phi is large.  The solution is bracketed in
    [1/phi, degree/phi]; safeguarded Newton with bisection fallback.
    """
    if phi is PHI_INFINITY:
        return max_root(p)
    _check_phi(phi)
    d = max_root(p) - p.as_array()  # all >= 0
    lo, hi = 1.0 / phi, p.degree / phi
    u = hi  # degree 1: the first test holds at u = 1/phi, as 1/(1/phi) is phi to an ulp
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(200):
            t = u + d
            f = float((1.0 / t).sum()) - phi
            if abs(f) <= _PHI_TOL * phi:
                break
            if f > 0.0:
                lo = u
            else:
                hi = u
            fp = -float((1.0 / t**2).sum())
            # t**2 may overflow, leaving fp = -0.0: then bisect
            step = u - f / fp if fp else lo
            u = step if lo < step < hi else 0.5 * (lo + hi)
            if hi - lo <= 1e-16 * hi:
                break
    return max_root(p) + u


def _smax_lanes(p: RealRootedPoly, phis: np.ndarray) -> np.ndarray:
    """smax(p, phi) for each phi, bit for bit: smax's loop, each lane freezing on its own exit."""
    d = max_root(p) - p.as_array()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo, hi = 1.0 / phis, p.degree / phis
        u, stop = hi, np.zeros(len(phis), dtype=bool)
        for _ in range(200):
            t = u[:, None] + d
            f = (1.0 / t).sum(axis=1) - phis
            done = stop | (np.abs(f) <= _PHI_TOL * phis)
            lo, hi = np.where(f > 0.0, u, lo), np.where(f > 0.0, hi, u)
            fp = -(1.0 / t**2).sum(axis=1)
            step = np.where(fp != 0.0, u - f / fp, lo)  # fp = -0.0 bisects, as in smax
            u = np.where(done, u, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
            stop = done | (hi - lo <= 1e-16 * hi)
            if stop.all():
                break
    return max_root(p) + u


def _smax_batch(roots: np.ndarray, phi: float) -> np.ndarray:
    """smax for many same-degree root rows at once (pure bisection in u).

    Accuracy is bisection-to-rounding: the returned values agree with the
    scalar solver far below certificate tolerance.  The loop stops at its fixed
    point, the first step that moves no bracket (each row at most one ulp wide,
    about 58 steps in), so the result is the one the 110-step cap would give.
    """
    top = roots.max(axis=1, keepdims=True)
    d = top - roots
    m = roots.shape[1]
    lo = np.full(roots.shape[0], 1.0 / phi)
    hi = np.full(roots.shape[0], m / phi)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        pos = np.sum(1.0 / (mid[:, None] + d), axis=1) > phi
        if (mid == np.where(pos, lo, hi)).all():
            break
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return top[:, 0] + 0.5 * (lo + hi)


_CLUSTER_TOL = 1e-10  # roots closer than this times max(1, |root|) are one root


def _cluster(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted roots into distinct values with multiplicities."""
    top = roots[1:]
    if np.all(top - roots[:-1] > _CLUSTER_TOL * np.maximum(1.0, np.abs(top))):
        # every gap is wide: each root is its own cluster (the loop below
        # would make a break at every index)
        return roots.copy(), np.ones(len(roots), dtype=np.int64)
    breaks = [0]
    for i in range(1, len(roots)):
        if roots[i] - roots[breaks[-1]] > _CLUSTER_TOL * max(1.0, abs(roots[i])):
            breaks.append(i)
    breaks.append(len(roots))
    distinct = np.array([roots[breaks[j]:breaks[j + 1]].mean() for j in range(len(breaks) - 1)])
    mult = np.diff(breaks)
    return distinct, np.asarray(mult)


def derivative_roots_batch(roots: np.ndarray) -> np.ndarray:
    """Roots of p' for every row p of an (r, deg) array of ascending roots.

    Returns an (r, deg - 1) array of ascending rows.  Each row is clustered
    on its own, and a root of multiplicity m passes m - 1 exact copies to p'.
    Rows with the same number of distinct roots are solved together; every
    row comes out bit-identical to the same row solved alone.
    """
    roots = np.asarray(roots, dtype=float)
    r, deg = roots.shape
    if deg < 2:
        raise DegreeTooSmall("derivative of a degree-1 polynomial has no roots")
    clusters = [_cluster(row) for row in roots]
    groups: dict[int, list[int]] = {}
    for i, (distinct, _) in enumerate(clusters):
        groups.setdefault(len(distinct), []).append(i)
    out = np.empty((r, deg - 1))
    for n_distinct, rows in groups.items():
        distinct = np.array([clusters[i][0] for i in rows])
        mult = np.array([clusters[i][1] for i in rows])
        kept = np.repeat(distinct.ravel(), (mult - 1).ravel()).reshape(len(rows), deg - n_distinct)
        if n_distinct == 1:
            out[rows] = kept
        else:
            x = _interior_roots(distinct, mult.astype(float))
            out[rows] = np.sort(np.concatenate([kept, x], axis=1), axis=1)
    return out


_ROOT_TOL = 1e-12  # accuracy of an interior root, relative to max(1, |root|)


def _interior_roots(mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """For (g, D) rows of distinct roots mu and weights w, the root of
    sum_j w_j/(x - mu_j) in each of the D - 1 gaps.

    Between consecutive distinct roots the sum falls from +inf to -inf, so
    the gaps of a row are bisected in lockstep until all of them meet the
    root tolerance; a row leaves the batch on the iteration it finishes.  Two
    clamped Newton steps then polish every root.  Sums run over the last,
    contiguous axis, so a row's arithmetic does not depend on its batch.
    """
    lo = mu[:, :-1].copy()
    hi = mu[:, 1:].copy()
    live = np.arange(len(mu))  # rows still bisecting
    a_lo, a_hi, a_mu, a_w = lo, hi, mu[:, None, :], w[:, None, :]
    # widths about halve per step and |mid| <= max|mu|: no exit test can hold before
    # t0 = floor(log2(narrowest row's widest gap / (_ROOT_TOL max(1, max|mu|)))) - 3,
    # computed here from half gaps (hence - 2), which cannot overflow
    half_gap = (0.5 * hi - 0.5 * lo).max(axis=1).min()
    t0 = int(np.log2(half_gap / (_ROOT_TOL * max(1.0, np.abs(mu).max())))) - 2
    for step in range(120):
        mid = 0.5 * (a_lo + a_hi)
        pos = (a_w / (mid[:, :, None] - a_mu)).sum(axis=2) > 0.0
        a_lo = np.where(pos, mid, a_lo)
        a_hi = np.where(pos, a_hi, mid)
        if step < t0:
            continue
        done = (a_hi - a_lo <= _ROOT_TOL * np.maximum(1.0, np.abs(mid))).all(axis=1)
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


def derivative_roots(p: RealRootedPoly) -> RealRootedPoly:
    """Roots of p', computed in root space as the one-row case of
    derivative_roots_batch.

    A root of multiplicity m passes m - 1 exact copies to p'; each gap between
    consecutive distinct roots holds one more root of p', found by bisection
    and polished by two clamped Newton steps.
    """
    return RealRootedPoly(tuple(derivative_roots_batch(p.as_array()[None, :])[0]))


def nth_derivative_roots(p: RealRootedPoly, k: int) -> RealRootedPoly:
    """Roots of the k-th derivative, 0 <= k <= degree - 1."""
    k = _check_count(k, 0, p.degree - 1, DerivativeOrderTooLarge, "derivative order")
    q = p
    for _ in range(k):
        q = derivative_roots(q)
    return q
