"""Coefficient-space reference for the root-space derivative engine.

Everything here is deliberately independent of `subforge.realroot`:
characteristic polynomials come from the Faddeev-LeVerrier recurrence, and
real roots come from coefficient-space bisection between critical points (no
companion matrices, no eigensolver).  The grid search brackets the refined
two-point potential bound by exhaustive enumeration.  These routines are
meant for small sizes only; they trade speed for being checkable by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subforge.errors import BarrierNotRightOfOne, InputError, OracleFailure, SizeTooLarge
from subforge.oracle import CHARPOLY_MAX_N, _fl_coeffs

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
