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

from .config import DEFAULT, Tolerances
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


def potential(p: RealRootedPoly, b: float, tol: Tolerances = DEFAULT) -> float:
    """Barrier potential p'(b)/p(b) = sum 1/(b - root_i), for b above all roots."""
    top = max_root(p)
    if not (b > top + tol.gap):
        raise BarrierNotRightOfRoots(f"b = {b} is not right of the largest root {top}")
    return float(np.sum(1.0 / (b - p.as_array())))


def _check_phi(phi) -> None:
    if isinstance(phi, bool) or not isinstance(phi, (int, float, np.floating)):
        raise NonPositivePhi(f"phi must be a positive finite real, got {phi!r}")
    if not np.isfinite(phi) or phi <= 0:
        raise NonPositivePhi(f"phi must be a positive finite real (use PHI_INFINITY), got {phi}")


def smax(p: RealRootedPoly, phi, tol: Tolerances = DEFAULT) -> float:
    """Soft maximum: the unique b > max_root with potential(p, b) = phi.

    Solved in the shifted coordinate u = b - max_root, which sidesteps the
    cancellation in b - root when phi is large.  The solution is bracketed in
    [1/phi, degree/phi]; safeguarded Newton with bisection fallback.
    """
    if phi is PHI_INFINITY:
        return max_root(p)
    _check_phi(phi)
    d = max_root(p) - p.as_array()  # all >= 0
    n = p.degree
    lo, hi = 1.0 / phi, n / phi
    if n == 1:
        return max_root(p) + 1.0 / phi
    u = hi
    for _ in range(200):
        f = float(np.sum(1.0 / (u + d))) - phi
        if abs(f) <= tol.phi * phi:
            break
        if f > 0.0:
            lo = u
        else:
            hi = u
        fp = -float(np.sum(1.0 / (u + d) ** 2))
        step = u - f / fp
        u = step if lo < step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-16 * hi:
            break
    return max_root(p) + u


def _smax_batch(roots: np.ndarray, phi: float, iters: int = 110) -> np.ndarray:
    """smax for many same-degree root rows at once (pure bisection in u).

    Accuracy is bisection-to-rounding: the returned values agree with the
    scalar solver far below certificate tolerance.
    """
    top = roots.max(axis=1, keepdims=True)
    d = top - roots
    m = roots.shape[1]
    lo = np.full(roots.shape[0], 1.0 / phi)
    hi = np.full(roots.shape[0], m / phi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f = np.sum(1.0 / (mid[:, None] + d), axis=1) - phi
        pos = f > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.max(hi - lo) <= 1e-16 * np.min(hi):
            break
    return top[:, 0] + 0.5 * (lo + hi)


def _cluster(roots: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted roots into distinct values with multiplicities."""
    top = roots[1:]
    if np.all(top - roots[:-1] > rel * np.maximum(1.0, np.abs(top))):
        # every gap is wide: each root is its own cluster (the loop below
        # would make a break at every index)
        return roots.copy(), np.ones(len(roots), dtype=np.int64)
    breaks = [0]
    for i in range(1, len(roots)):
        if roots[i] - roots[breaks[-1]] > rel * max(1.0, abs(roots[i])):
            breaks.append(i)
    breaks.append(len(roots))
    distinct = np.array([roots[breaks[j]:breaks[j + 1]].mean() for j in range(len(breaks) - 1)])
    mult = np.diff(breaks)
    return distinct, np.asarray(mult)


def derivative_roots_batch(roots: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
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
    clusters = [_cluster(row, tol.cluster) for row in roots]
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
            x = _interior_roots(distinct, mult.astype(float), tol)
            out[rows] = np.sort(np.concatenate([kept, x], axis=1), axis=1)
    return out


def _interior_roots(mu: np.ndarray, w: np.ndarray, tol: Tolerances) -> np.ndarray:
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
    for _ in range(120):
        mid = 0.5 * (a_lo + a_hi)
        pos = (a_w / (mid[:, :, None] - a_mu)).sum(axis=2) > 0.0
        a_lo = np.where(pos, mid, a_lo)
        a_hi = np.where(pos, a_hi, mid)
        done = (a_hi - a_lo <= tol.root * np.maximum(1.0, np.abs(mid))).all(axis=1)
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


def derivative_roots(p: RealRootedPoly, tol: Tolerances = DEFAULT) -> RealRootedPoly:
    """Roots of p', computed in root space as the one-row case of
    derivative_roots_batch.

    A root of multiplicity m passes m - 1 exact copies to p'; each gap between
    consecutive distinct roots holds one more root of p', found by bisection
    and polished by two clamped Newton steps.
    """
    return RealRootedPoly(tuple(derivative_roots_batch(p.as_array()[None, :], tol)[0]))


def nth_derivative_roots(p: RealRootedPoly, k: int, tol: Tolerances = DEFAULT) -> RealRootedPoly:
    """Roots of the k-th derivative, 0 <= k <= degree - 1."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InputError("derivative order must be an integer")
    if k < 0 or k > p.degree - 1:
        raise DerivativeOrderTooLarge(f"order {k} outside [0, {p.degree - 1}]")
    q = p
    for _ in range(int(k)):
        q = derivative_roots(q, tol)
    return q
