"""Coefficient-space validators: exact charpolys, subset search, grid maximizer.

The coefficient reference (tests/reference.py) also checks the root-space
derivative engine: scalar chains and the batched candidate rows of the
maxroot greedy.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from subforge.errors import InputError, OracleFailure, SizeTooLarge
from subforge.oracle import CHARPOLY_MAX_N, brute_force_best_subset, thompson_residual
from subforge.realroot import derivative_roots_batch, nth_derivative_roots
from subforge.submatrix import HermitianMatrix, _candidate_eigs, charpoly_as_roots
from conftest import rand_herm
from reference import (
    CoeffPoly,
    charpoly_coeffs,
    coefficient_derivative_roots,
    derivative_coeffs,
    grid_search_potential,
)


def test_charpoly_diag():
    # det(xI - diag(1,2)) = x^2 - 3x + 2, constant term first
    p = charpoly_coeffs(np.diag([1.0, 2.0]))
    assert np.allclose(p.coeffs, (2.0, -3.0, 1.0), atol=1e-12)
    assert p.degree == 2
    assert abs(p(1.0)) <= 1e-12 and abs(p(2.0)) <= 1e-12


def test_charpoly_offdiagonal():
    p = charpoly_coeffs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(p.coeffs, (-1.0, 0.0, 1.0), atol=1e-12)


def test_charpoly_matches_eigen_expansion():
    # oracle: monic expansion from eigvalsh roots
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rand_herm(rng, n)
        p = charpoly_coeffs(a)
        ref = np.polynomial.polynomial.polyfromroots(np.linalg.eigvalsh(a))
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(np.asarray(p.coeffs) - ref.real)) <= 1e-8 * scale


def test_charpoly_size_cap():
    with pytest.raises(SizeTooLarge):
        charpoly_coeffs(np.eye(CHARPOLY_MAX_N + 1))


def test_charpoly_rejects_complex_spectrum():
    # non-Hermitian input with genuinely complex eigenvalues leaves an
    # imaginary coefficient residue, which the oracle refuses to round away
    with pytest.raises(OracleFailure):
        charpoly_coeffs(np.array([[1.0j, 0.0], [0.0, 0.0]]))


def test_coeffpoly_validation():
    with pytest.raises(InputError):
        CoeffPoly(())
    with pytest.raises(InputError):
        CoeffPoly((0.0, np.inf))


def test_derivative_coeffs():
    p = CoeffPoly((0.0, 0.0, 0.0, 1.0))  # x^3
    assert derivative_coeffs(p).coeffs == (0.0, 0.0, 3.0)
    assert derivative_coeffs(p, 2).coeffs == (0.0, 6.0)


def test_coefficient_derivative_roots():
    # (x-1)(x-2)(x-3); critical points 2 +/- 1/sqrt(3) by the quadratic formula
    p = CoeffPoly((-6.0, 11.0, -6.0, 1.0))
    r = coefficient_derivative_roots(p, 1)
    assert np.allclose(r, [2 - 1 / np.sqrt(3), 2 + 1 / np.sqrt(3)], atol=1e-10)
    assert coefficient_derivative_roots(p, 0) == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    with pytest.raises(InputError):
        coefficient_derivative_roots(p, 3)


def test_brute_force_diag():
    idx, val = brute_force_best_subset(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 3)
    assert idx == (0, 1, 2)
    assert val == 3.0


def test_brute_force_matches_manual_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rand_herm(rng, 5).real
        a = (a + a.T) / 2.0
        idx, val = brute_force_best_subset(a, 2)
        best = min(
            float(np.linalg.eigvalsh(a[np.ix_(s, s)])[-1])
            for s in itertools.combinations(range(5), 2)
        )
        assert abs(val - best) <= 1e-12
        assert float(np.linalg.eigvalsh(a[np.ix_(idx, idx)])[-1]) == pytest.approx(val)


def test_grid_search_concentrated_profile():
    # beta = alpha^2 admits only the all-alpha configuration up to slack,
    # and the refined bound degenerates to exactly n/(b - alpha)
    n, g, b, alpha = 4, 40, 2.0, 0.5
    got = grid_search_potential(alpha, alpha * alpha, b, n, g)
    exact = n / (b - alpha)
    assert got >= exact - 1e-12
    assert got <= exact + 5.0 * n / (g * (b - 1.0) ** 2)


def test_grid_search_two_point_profile():
    # alpha = beta = 1/2 means half the mass at 0 and half at 1
    got = grid_search_potential(0.5, 0.5, 2.0, 4, 40)
    exact = 4 * (0.5 / 1.0 + 0.5 / 2.0)
    assert got >= exact - 1e-12
    assert got <= exact + 5.0 * 4 / (40 * 1.0)


def test_grid_search_limits():
    with pytest.raises(InputError):
        grid_search_potential(0.5, 0.375, 2.0, 7, 40)
    with pytest.raises(InputError):
        grid_search_potential(0.5, 0.375, 2.0, 4, 51)


def test_thompson_residual_size_cap_is_the_charpoly_cap():
    # past the certified size the recurrence stops meaning anything (at n = 24
    # half the inputs fail its own consistency check), so n = 17 is refused
    rng = np.random.default_rng(17)
    with pytest.raises(SizeTooLarge):
        thompson_residual(HermitianMatrix(rand_herm(rng, CHARPOLY_MAX_N + 1)))
    assert thompson_residual(HermitianMatrix(rand_herm(rng, CHARPOLY_MAX_N))) <= 1e-8


def test_thompson_residual_refuses_overflowing_coefficients():
    # det(xI - 1e100 diag(1, 2, 3, 4)) has a constant term of 24e400
    with pytest.raises(InputError, match="coefficients must be finite"):
        thompson_residual(HermitianMatrix(1e100 * np.diag([1.0, 2.0, 3.0, 4.0])))


@st.composite
def _matrix_and_order(draw):
    """A GUE-type Hermitian matrix (well-separated eigenvalues) or a rank-r
    projection (two eigenvalues of high multiplicity), and k in [1, n - 1].
    i.i.d. Gaussian eigenvalues are left out: their near-coincident roots are
    beyond the reference's bisection between critical points."""
    n = draw(st.integers(2, CHARPOLY_MAX_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rand_herm(rng, n)
    projection = draw(st.booleans())
    if projection:
        q, _ = np.linalg.qr(a)
        r = draw(st.integers(1, n - 1))
        a = q[:, :r] @ q[:, :r].conj().T
    return HermitianMatrix(a), draw(st.integers(1, n - 1)), projection


def _reference_roots(a: np.ndarray, k: int) -> list[float]:
    try:
        return coefficient_derivative_roots(charpoly_coeffs(a), k)
    except OracleFailure:
        # the recurrence refuses its own result (imaginary residue): about 1 in
        # 1,300 GUE-type inputs at n = 16; the reference abstains, nothing is checked
        reject()


def _worst_rel_error(got, want) -> float:
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want) / np.maximum(1.0, np.abs(want))))


@settings(max_examples=80, deadline=None)
@given(_matrix_and_order())
def test_reference_checks_the_derivative_engine(case):
    a, k, projection = case
    n = a.n
    want = _reference_roots(a.entries, k)
    assert _worst_rel_error(nth_derivative_roots(charpoly_as_roots(a), k).roots, want) <= 1e-10
    if projection or n == 2:
        # a projection's candidates keep a simple root between two high-multiplicity
        # clusters, which the reference's bisection misses by up to 3.4e-10 (the
        # engine is right to 3e-16); 1 x 1 candidates have no derivative
        return
    # the maxroot greedy's path: every defect-1 candidate, kb derivatives batched
    kb = min(k, n - 2)
    rows = _candidate_eigs(a.entries, list(range(n)))
    for _ in range(kb):
        rows = derivative_roots_batch(rows)
    for t in range(n):
        sub = np.delete(np.delete(a.entries, t, axis=0), t, axis=1)
        assert _worst_rel_error(rows[t], _reference_roots(sub, kb)) <= 1e-10
