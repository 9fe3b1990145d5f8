"""Slow reference oracles used to cross-check the fast paths.

Everything here is deliberately independent of the root-space engine in
``realroot``: characteristic polynomials come from the Faddeev-LeVerrier
recurrence, real roots come from coefficient-space bisection between critical
points (no companion matrices), and extremal subsets come from exhaustive
enumeration.  These routines are meant for small sizes only; they trade speed
for being checkable by hand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import OracleFailure, SizeTooLarge, InputError, BarrierNotRightOfOne

if TYPE_CHECKING:  # annotation only: submatrix must not be a run-time dependency
    from .submatrix import HermitianMatrix

# Faddeev-LeVerrier is numerically trustworthy well past this, but the oracle
# contract promises hand-checkable sizes.
CHARPOLY_MAX_N = 16
_CHARPOLY_HARD_CAP = 64
SUBSET_BUDGET = 1_000_000
GRID_MAX_N = 6
GRID_MAX_STEPS = 50


@dataclass(frozen=True)
class CoeffPoly:
    """Real polynomial stored as coefficients, constant term first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise InputError("empty coefficient list")
        if not all(np.isfinite(c) for c in self.coeffs):
            raise InputError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        return _horner(self.coeffs, x)


def _fl_coeffs(a: np.ndarray) -> list[float]:
    """Faddeev-LeVerrier coefficients of det(xI - A), descending order."""
    n = a.shape[0]
    ident = np.eye(n, dtype=complex)
    m = ident.copy()
    desc = [1.0 + 0.0j]
    for k in range(1, n + 1):
        am = a @ m
        ck = -np.trace(am) / k
        desc.append(ck)
        m = am + ck * ident
    scale = max(1.0, max(abs(c) for c in desc))
    worst = max(abs(c.imag) for c in desc)
    if worst > 1e-10 * scale:
        raise OracleFailure(f"imaginary coefficient residue {worst:.3e} exceeds tolerance")
    return [c.real for c in desc]


def charpoly_coeffs(a: np.ndarray) -> CoeffPoly:
    """Characteristic polynomial det(xI - A) of a Hermitian matrix.

    Exact-recurrence route (Faddeev-LeVerrier), no eigensolver involved.
    Limited to n <= 16 where double precision keeps every coefficient
    trustworthy.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if a.shape[0] > CHARPOLY_MAX_N:
        raise SizeTooLarge(f"oracle charpoly limited to n <= {CHARPOLY_MAX_N}")
    desc = _fl_coeffs(a)
    return CoeffPoly(tuple(reversed(desc)))


def charpoly_coeffs_unchecked(a: np.ndarray) -> CoeffPoly:
    """Same recurrence with the hard cap instead of the oracle cap.

    Used by the Thompson-identity residual, whose contract runs to n = 64;
    accuracy degrades with n and is only certified at oracle sizes.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] > _CHARPOLY_HARD_CAP:
        raise SizeTooLarge(f"coefficient expansion limited to n <= {_CHARPOLY_HARD_CAP}")
    return CoeffPoly(tuple(reversed(_fl_coeffs(a))))


def derivative_coeffs(p: CoeffPoly, k: int = 1) -> CoeffPoly:
    """k-fold coefficient-space derivative (exact integer scaling)."""
    if k < 0:
        raise InputError("derivative order must be nonnegative")
    if k > p.degree:
        raise InputError(f"order {k} exceeds degree {p.degree}")
    c = list(p.coeffs)
    for _ in range(k):
        c = [c[j + 1] * (j + 1) for j in range(len(c) - 1)]
    if not c:
        c = [0.0]
    return CoeffPoly(tuple(c))


def thompson_residual(a: HermitianMatrix) -> float:
    """Coefficient residual of: sum of defect-1 charpolys = (charpoly)'.

    Both sides expanded by the coefficient recurrence; returns the max
    coefficient deviation normalized by the largest derivative coefficient.
    """
    n = a.n
    if n > 64:
        raise SizeTooLarge("thompson residual limited to n <= 64")
    if n < 2:
        raise InputError("need n >= 2")
    full = charpoly_coeffs_unchecked(a.entries)
    target = np.asarray(derivative_coeffs(full, 1).coeffs)
    total = np.zeros(n)
    for i in range(n):
        idx = [j for j in range(n) if j != i]
        sub = a.entries[np.ix_(idx, idx)]
        total += np.asarray(charpoly_coeffs_unchecked(sub).coeffs)
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(total - target)) / scale)


def _eval_scale(coeffs: list[float], x: float) -> float:
    m = max(1.0, abs(x))
    s = 0.0
    p = 1.0
    for c in coeffs:
        s += abs(c) * p
        p *= m
    return max(s, 1e-300)


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _real_roots_from_coeffs(coeffs: list[float]) -> list[float]:
    """All real roots of a real-rooted polynomial, with multiplicity.

    Recursive critical-point method: roots of p' partition the line into
    intervals where p is strictly monotone; each sign change is pinned by
    bisection plus a few Newton steps.  Multiple roots of p are exactly the
    critical points where p itself vanishes.
    """
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [-c[0] / c[1]]

    dc = [c[j + 1] * (j + 1) for j in range(deg)]
    crit = _real_roots_from_coeffs(dc)
    crit.sort()

    # cluster critical points into distinct walls with counts
    walls: list[list[float]] = []
    counts: list[int] = []
    for v in crit:
        if walls and abs(v - walls[-1][-1]) <= 1e-10 * max(1.0, abs(v)):
            walls[-1].append(v)
            counts[-1] += 1
        else:
            walls.append([v])
            counts.append(1)
    wall_vals = [float(np.mean(w)) for w in walls]

    lead = c[-1]
    bound = 1.0 + max(abs(cc / lead) for cc in c[:-1])

    # p vanishes at a critical point only for genuine multiple roots; the
    # threshold sits ~1e4 above the Horner noise floor so nearby-but-distinct
    # roots (which leave |p| far larger at the interior critical point) are
    # never merged.
    roots: list[float] = []
    is_root_wall = []
    for v, m in zip(wall_vals, counts):
        if abs(_horner(c, v)) <= 1e-12 * _eval_scale(c, v):
            roots.extend([v] * (m + 1))
            is_root_wall.append(True)
        else:
            if m > 1:
                raise OracleFailure("multiple critical point is not a root; input not real-rooted?")
            is_root_wall.append(False)

    pts = [-bound] + wall_vals + [bound]
    root_flags = [False] + is_root_wall + [False]
    for i in range(len(pts) - 1):
        if root_flags[i] or root_flags[i + 1]:
            continue
        a, b = pts[i], pts[i + 1]
        fa, fb = _horner(c, a), _horner(c, b)
        if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a <= 1e-13 * max(1.0, abs(mid)):
                break
            fm = _horner(c, mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
        x = 0.5 * (a + b)
        for _ in range(3):
            fx = _horner(c, x)
            dfx = _horner(dc, x)
            if dfx == 0.0:
                break
            step = x - fx / dfx
            if a <= step <= b:
                x = step
        roots.append(x)

    if len(roots) != deg:
        raise OracleFailure(f"found {len(roots)} real roots for degree {deg}; input not real-rooted?")
    roots.sort()
    return roots


def coefficient_derivative_roots(p: CoeffPoly, k: int) -> list[float]:
    """Roots of the k-th derivative, entirely in coefficient space."""
    if not 0 <= k <= p.degree - 1:
        raise InputError(f"derivative order {k} outside [0, {p.degree - 1}]")
    dk = derivative_coeffs(p, k)
    return _real_roots_from_coeffs(list(dk.coeffs))


def brute_force_best_subset(a: np.ndarray, k: int) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimise the top eigenvalue over all k-subsets.

    Ties resolve to the lexicographically smallest index tuple, which is the
    order itertools.combinations enumerates.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"subset size {k} outside [1, {n}]")
    from math import comb

    if comb(n, k) > SUBSET_BUDGET:
        raise SizeTooLarge(f"C({n},{k}) exceeds the enumeration budget")
    best_val = np.inf
    best_idx: tuple[int, ...] = ()
    for idx in itertools.combinations(range(n), k):
        sub = a[np.ix_(idx, idx)]
        lam = np.linalg.eigvalsh(sub)[-1]
        if lam < best_val:
            best_val = lam
            best_idx = idx
    return best_idx, float(best_val)


def grid_search_potential(alpha: float, beta: float, b: float, n: int, grid_steps: int) -> float:
    """Max of sum 1/(b - x_i) over grid multisets matching the moment windows.

    Grid is {0, 1/g, ..., 1}; feasible multisets satisfy
    |sum x - n*alpha| <= 1.5/g and |sum x^2 - n*beta| <= 3/g.  Used to
    sandwich the refined two-point potential bound; the documented comparison
    slack is 5n / (g (b-1)^2).
    """
    if b <= 1.0:
        raise BarrierNotRightOfOne("grid potential requires b > 1")
    if not 0.0 <= alpha <= 1.0:
        raise InputError("alpha must lie in [0, 1]")
    if beta > alpha + 1e-12 or beta < alpha * alpha - 1e-12:
        raise InputError("beta must lie in [alpha^2, alpha]")
    if n > GRID_MAX_N:
        raise SizeTooLarge(f"grid oracle limited to n <= {GRID_MAX_N}")
    if grid_steps > GRID_MAX_STEPS:
        raise SizeTooLarge(f"grid oracle limited to {GRID_MAX_STEPS} steps")
    g = grid_steps
    vals = [j / g for j in range(g + 1)]
    sum_lo, sum_hi = n * alpha - 1.5 / g, n * alpha + 1.5 / g
    sq_lo, sq_hi = n * beta - 3.0 / g, n * beta + 3.0 / g

    best = -np.inf

    def rec(pos: int, start: int, s: float, sq: float, pot: float):
        nonlocal best
        rem = n - pos
        if rem == 0:
            if sum_lo <= s <= sum_hi and sq_lo <= sq <= sq_hi:
                if pot > best:
                    best = pot
            return
        lo_v = vals[start]
        # monotone-nondecreasing choice: remaining values in [lo_v, 1]
        if s + rem * lo_v > sum_hi or s + rem * 1.0 < sum_lo:
            return
        if sq + rem * lo_v * lo_v > sq_hi or sq + rem * 1.0 < sq_lo:
            return
        for j in range(start, g + 1):
            v = vals[j]
            if s + v + (rem - 1) * v > sum_hi:
                break
            rec(pos + 1, j, s + v, sq + v * v, pot + 1.0 / (b - v))

    rec(0, 0, 0.0, 0.0, 0.0)
    if best == -np.inf:
        raise OracleFailure("no grid multiset satisfies the moment windows")
    return float(best)
