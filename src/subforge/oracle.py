"""Slow reference routines behind the `verify` suites.

`thompson_residual` checks the defect-sum identity (the defect-1 charpolys
sum to the derivative of the full charpoly) with both sides expanded by the
Faddeev-LeVerrier recurrence, no eigensolver involved.
`brute_force_best_subset` finds the extremal k-subset by exhaustive
enumeration.  Both are meant for small sizes only; they trade speed for being
checkable by hand.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .errors import OracleFailure, SizeTooLarge, InputError

if TYPE_CHECKING:  # annotation only: submatrix must not be a run-time dependency
    from .submatrix import HermitianMatrix

# the recurrence's coefficients lose their meaning past about n = 18; the
# oracle certifies hand-checkable sizes only
CHARPOLY_MAX_N = 16
SUBSET_BUDGET = 1_000_000


# an overflowing coefficient is refused below, as an InputError
@np.errstate(over="ignore", invalid="ignore")
def _fl_coeffs(a: np.ndarray) -> list[float]:
    """Faddeev-LeVerrier coefficients of det(xI - A), descending order."""
    n = a.shape[0]
    if n > CHARPOLY_MAX_N:
        raise SizeTooLarge(f"oracle charpoly limited to n <= {CHARPOLY_MAX_N}")
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
    if not all(np.isfinite(c) for c in desc):
        raise InputError("coefficients must be finite")
    return [c.real for c in desc]


def thompson_residual(a: HermitianMatrix) -> float:
    """Coefficient residual of: sum of defect-1 charpolys = (charpoly)'.

    Both sides expanded by the coefficient recurrence; returns the max
    coefficient deviation normalized by the largest derivative coefficient.
    """
    n = a.n
    if n < 2:
        raise InputError("need n >= 2")
    full = _fl_coeffs(a.entries)[::-1]  # constant term first
    target = np.asarray([full[j + 1] * (j + 1) for j in range(n)])
    total = np.zeros(n)
    for i in range(n):
        idx = [j for j in range(n) if j != i]
        total += _fl_coeffs(a.entries[np.ix_(idx, idx)])[::-1]
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(total - target)) / scale)


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
