"""Selection certificates: greedy soundness, closed-form bounds, replayability."""

import math

import numpy as np
import pytest

from subforge.errors import (
    CertificateViolation,
    CRangeError,
    DeltaRange,
    KOutOfRange,
    NotHermitian,
    NotPositiveContraction,
    SizeTooLarge,
    SpectrumOutOfRange,
    ZeroOperator,
)
from subforge.realroot import RealRootedPoly, max_root, nth_derivative_roots, smax
from subforge.submatrix import (
    HermitianMatrix,
    RectOperator,
    SelectionCertificate,
    SelectionMode,
    charpoly_as_roots,
    eigenvalues,
    select_columns,
    select_invertible,
    select_low_norm,
    select_maxroot_greedy,
    select_smax_greedy,
    select_two_sided,
    thompson_residual,
)
from subforge.oracle import brute_force_best_subset
from conftest import rand_contraction, rand_herm, rand_traceless_unit


def test_hermitian_validation():
    HermitianMatrix(np.array([[1.0, 2.0], [2.0, -1.0]]))
    with pytest.raises(NotHermitian):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        HermitianMatrix(np.zeros((2, 3)))


def test_hermitian_rejects_non_finite():
    # nan > tol is False, so a NaN entry used to slip through the symmetry test
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        a = np.eye(2, dtype=complex)
        a[0, 0] = bad
        with pytest.raises(NotHermitian):
            HermitianMatrix(a)
    with pytest.raises(NotHermitian):
        select_smax_greedy(HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]])), 1, 1.0)


def test_eigenvalues_sorted():
    assert np.allclose(eigenvalues(HermitianMatrix(np.diag([3.0, 1.0, 2.0]))), [1, 2, 3])
    assert np.allclose(eigenvalues(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))), [-1, 1])
    # rank-one sign pattern: v v^T has spectrum {0, ..., 0, n}
    v = np.array([(-1.0) ** i for i in range(6)])
    ev = eigenvalues(HermitianMatrix(np.outer(v, v)))
    assert np.allclose(ev, [0, 0, 0, 0, 0, 6], atol=1e-12)


def test_charpoly_as_roots_matches_eigs():
    rng = np.random.default_rng(4)
    a = HermitianMatrix(rand_herm(rng, 5))
    assert np.allclose(charpoly_as_roots(a).as_array(), eigenvalues(a))


def test_thompson_residual_exact_cases():
    assert thompson_residual(HermitianMatrix(np.eye(4))) <= 1e-12
    assert thompson_residual(HermitianMatrix(np.diag([1.0, -2.0, 0.5]))) <= 1e-12


def test_thompson_residual_random():
    rng = np.random.default_rng(8)
    for _ in range(5):
        assert thompson_residual(HermitianMatrix(rand_herm(rng, 8))) <= 1e-8


def test_thompson_residual_size_cap():
    with pytest.raises(SizeTooLarge):
        thompson_residual(HermitianMatrix(np.eye(65)))


def test_maxroot_greedy_diag():
    cert = select_maxroot_greedy(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 2)
    assert cert.kept_indices == (0, 1)
    assert cert.achieved_extreme == 2.0
    # bound: largest critical point of (x-1)(x-2)(x-3), i.e. 2 + 1/sqrt(3)
    assert cert.certified_bound == pytest.approx(2 + 1 / math.sqrt(3), abs=1e-9)
    assert cert.mode is SelectionMode.MAXROOT_GREEDY
    assert cert.removal_trace == (2,)


def test_maxroot_greedy_identity():
    cert = select_maxroot_greedy(HermitianMatrix(np.eye(5)), 3)
    assert cert.achieved_extreme == pytest.approx(1.0, abs=1e-12)
    assert cert.certified_bound == pytest.approx(1.0, abs=1e-9)


def test_maxroot_greedy_keep_validation():
    a = HermitianMatrix(np.eye(4))
    for bad in (0, 4, 5, 1.5):
        with pytest.raises(KOutOfRange):
            select_maxroot_greedy(a, bad)


def _maxroot_reference(a: np.ndarray, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The maxroot greedy with every candidate scored by its own derivative chain."""
    live = list(range(a.shape[0]))
    trace = []
    while len(live) > k:
        scores = []
        for t in range(len(live)):
            keep = live[:t] + live[t + 1:]
            ev = np.linalg.eigvalsh(a[np.ix_(keep, keep)])
            q = nth_derivative_roots(RealRootedPoly(tuple(ev)), len(live) - 1 - k)
            scores.append(max_root(q))
        t = min(range(len(live)), key=lambda j: (scores[j], live[j]))
        trace.append(live.pop(t))
    return tuple(live), tuple(trace)


def test_maxroot_batched_scoring_matches_per_candidate_loop():
    rng = np.random.default_rng(31)
    cases = [(rand_herm(rng, n), k) for n, k in ((4, 1), (6, 3), (9, 2), (12, 6), (13, 9))]
    # repeated eigenvalues: clustered candidate roots and exact score ties
    cases.append((np.kron(np.eye(3), np.ones((3, 3))), 4))
    cases.append((rand_traceless_unit(rng, 10), 5))
    for a, k in cases:
        cert = select_maxroot_greedy(HermitianMatrix(a), k)
        assert (cert.kept_indices, cert.removal_trace) == _maxroot_reference(a, k)


def test_maxroot_bound_dominates_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(8):
        a = rand_herm(rng, 6)
        cert = select_maxroot_greedy(HermitianMatrix(a), 3)
        _, best = brute_force_best_subset(a, 3)
        assert best <= cert.certified_bound + 1e-8
        assert cert.achieved_extreme <= cert.certified_bound + 1e-8


def test_maxroot_trace_replay_interlaces():
    # along the removal trace each charpoly Cauchy-interlaces its parent
    rng = np.random.default_rng(14)
    a = rand_herm(rng, 8)
    cert = select_maxroot_greedy(HermitianMatrix(a), 3)
    live = list(range(8))
    for idx in cert.removal_trace:
        parent = np.linalg.eigvalsh(a[np.ix_(live, live)])
        live.remove(idx)
        child = np.linalg.eigvalsh(a[np.ix_(live, live)])
        assert np.all(parent[:-1] <= child + 1e-10)
        assert np.all(child <= parent[1:] + 1e-10)
    assert tuple(sorted(live)) == cert.kept_indices


def test_smax_greedy_zero_matrix():
    cert = select_smax_greedy(HermitianMatrix(np.zeros((5, 5))), 2, 2.0)
    assert cert.achieved_extreme == 0.0
    assert cert.phi_used == 2.0
    assert cert.mode is SelectionMode.SMAX_GREEDY
    assert len(cert.kept_indices) == 2


def test_smax_greedy_keeps_low_block():
    cert = select_smax_greedy(HermitianMatrix(np.diag([0.0, 0.0, 1.0, 1.0])), 2, 3.0)
    assert cert.kept_indices == (0, 1)
    assert cert.achieved_extreme == 0.0
    assert cert.achieved_extreme <= cert.certified_bound + 1e-8


def test_smax_greedy_descent():
    # every removal drops smax by at least 1/phi
    rng = np.random.default_rng(6)
    a = rand_herm(rng, 10)
    phi = 1.7
    cert = select_smax_greedy(HermitianMatrix(a), 4, phi)
    live = list(range(10))
    prev = smax(RealRootedPoly(tuple(np.linalg.eigvalsh(a))), phi)
    for idx in cert.removal_trace:
        live.remove(idx)
        cur = smax(RealRootedPoly(tuple(np.linalg.eigvalsh(a[np.ix_(live, live)]))), phi)
        assert prev - cur >= 1.0 / phi - 1e-8
        prev = cur


def test_low_norm_signed_diagonal():
    # alternating +-1 diagonal: the greedy keeps the all-(-1) block
    cert = select_low_norm(HermitianMatrix(np.diag([1.0, -1.0] * 4)), 4)
    assert cert.kept_indices == (1, 3, 5, 7)
    assert cert.achieved_extreme == -1.0
    assert abs(cert.certified_bound - 1.0) <= 1e-6


def test_low_norm_traceless_closed_form():
    # zero trace, keep 1/4 of the indices: bound is 2 sqrt(c - c^2) = sqrt(3)/2
    rng = np.random.default_rng(12)
    a = rand_traceless_unit(rng, 16)
    cert = select_low_norm(HermitianMatrix(a), 4)
    assert cert.certified_bound == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert cert.achieved_extreme <= cert.certified_bound + 1e-8


def test_low_norm_degenerate_spectrum():
    # identity: every subset achieves the common eigenvalue exactly
    cert = select_low_norm(HermitianMatrix(np.eye(8)), 5)
    assert cert.kept_indices == (0, 1, 2, 3, 4)
    assert cert.achieved_extreme == 1.0
    assert cert.certified_bound == 1.0
    assert cert.phi_used is None
    assert cert.removal_trace == (5, 6, 7)


def test_low_norm_rejects_wild_spectrum():
    with pytest.raises(SpectrumOutOfRange):
        select_low_norm(HermitianMatrix(np.diag([2.0, 0.0, 0.0])), 1)
    with pytest.raises(SpectrumOutOfRange):
        select_low_norm(HermitianMatrix(np.diag([-1.5, 0.0, 0.0])), 1)


def test_two_sided_zero_matrix():
    cert = select_two_sided(HermitianMatrix(np.zeros((6, 6))), 0.5)
    assert cert.kept_indices == (0,)
    assert cert.achieved_extreme == 0.0
    assert cert.certified_bound == 0.0
    assert cert.mode is SelectionMode.TWO_SIDED


def test_two_sided_signed_diagonal():
    cert = select_two_sided(HermitianMatrix(np.diag([1.0, -1.0] * 16)), 0.5)
    assert len(cert.kept_indices) == 8
    assert cert.achieved_extreme <= cert.certified_bound + 1e-8
    assert cert.certified_bound <= 1.0 + 1e-6


def test_two_sided_random_traceless():
    # c = 1/3: both stages run at deletion fraction 2/3, bound 2 sqrt(2)/3
    rng = np.random.default_rng(19)
    a = rand_traceless_unit(rng, 36)
    a = a - np.diag(np.diag(a))  # zero diagonal keeps stage 2 traceless
    ev = np.linalg.eigvalsh(a)
    a = a / max(1.0, abs(ev[0]), abs(ev[-1]))
    cert = select_two_sided(HermitianMatrix(a), 1.0 / 3.0)
    assert len(cert.kept_indices) == 4
    assert cert.certified_bound <= 2.0 * math.sqrt(2.0) / 3.0 + 1e-6
    sub = a[np.ix_(cert.kept_indices, cert.kept_indices)]
    sev = np.linalg.eigvalsh(sub)
    assert max(abs(sev[0]), abs(sev[-1])) == pytest.approx(cert.achieved_extreme, abs=1e-12)


def test_two_sided_validation():
    a = HermitianMatrix(np.zeros((8, 8)))
    with pytest.raises(CRangeError):
        select_two_sided(a, 0.6)
    with pytest.raises(CRangeError):
        select_two_sided(a, 0.2)  # floor(c^2 n) = 0
    with pytest.raises(SpectrumOutOfRange):
        select_two_sided(HermitianMatrix(np.diag([0.5] * 8)), 0.5)


def test_invertible_identity():
    cert = select_invertible(HermitianMatrix(np.eye(6)), 0.5)
    assert len(cert.kept_indices) == 3
    assert cert.achieved_extreme == 1.0
    assert cert.certified_bound == pytest.approx(0.5, abs=1e-12)
    assert cert.mode is SelectionMode.INVERTIBILITY


def test_invertible_projection():
    # rank-4 projection in dimension 8: msr = 1/2, keeps 2, c = 1/4,
    # bound = 1/2 (sqrt(3/4) - sqrt(1/4))^2
    cert = select_invertible(HermitianMatrix(np.diag([1.0] * 4 + [0.0] * 4)), 0.5)
    assert cert.kept_indices == (2, 3)
    assert cert.achieved_extreme == 1.0
    assert cert.certified_bound == pytest.approx(0.5 * (math.sqrt(0.75) - 0.5) ** 2, abs=1e-15)


def test_invertible_keep_all():
    # delta = 1 on the identity keeps everything
    cert = select_invertible(HermitianMatrix(np.eye(4)), 1.0)
    assert cert.kept_indices == (0, 1, 2, 3)
    assert cert.achieved_extreme == 1.0
    assert cert.removal_trace == ()


def test_invertible_validation():
    with pytest.raises(DeltaRange):
        select_invertible(HermitianMatrix(np.eye(4)), 0.0)
    with pytest.raises(NotPositiveContraction):
        select_invertible(HermitianMatrix(np.diag([2.0, 0.5, 0.5, 0.5])), 0.5)
    with pytest.raises(NotPositiveContraction):
        select_invertible(HermitianMatrix(np.zeros((4, 4))), 0.5)


def test_invertible_random_contraction():
    rng = np.random.default_rng(25)
    for _ in range(5):
        a = rand_contraction(rng, 12)
        cert = select_invertible(HermitianMatrix(a), 0.7)
        sub = a[np.ix_(cert.kept_indices, cert.kept_indices)]
        assert float(np.linalg.eigvalsh(sub)[0]) >= cert.certified_bound - 1e-8


def test_select_columns_identity():
    cert = select_columns(RectOperator(np.eye(5)), 1.0)
    assert cert.kept_indices == (0, 1, 2, 3, 4)
    assert cert.achieved_extreme == pytest.approx(1.0, abs=1e-12)
    assert cert.certified_bound == pytest.approx(0.0, abs=1e-12)
    assert cert.mode is SelectionMode.COLUMN_SELECT


def test_select_columns_scaled_orthogonal():
    # columns of norm s, pairwise orthogonal: kept block has s_min exactly s
    s = 0.6
    t = s * np.eye(8)[:, :6]
    cert = select_columns(RectOperator(t), 0.5)
    assert cert.achieved_extreme == pytest.approx(s, abs=1e-12)
    c = len(cert.kept_indices) / 6
    expect = (s * math.sqrt(6) / math.sqrt(6)) * (math.sqrt(1 - c) - math.sqrt(0.5 - c))
    assert cert.certified_bound == pytest.approx(expect, abs=1e-12)
    assert cert.achieved_extreme >= cert.certified_bound - 1e-8


def test_select_columns_zero_operator():
    with pytest.raises(ZeroOperator):
        select_columns(RectOperator(np.zeros((3, 4))), 0.5)


def test_permutation_invariance():
    # conjugating by a permutation permutes the kept set, same achieved value
    rng = np.random.default_rng(33)
    a = rand_herm(rng, 7)
    perm = rng.permutation(7)
    p = np.eye(7)[perm]
    b = p @ a @ p.T
    ca = select_maxroot_greedy(HermitianMatrix(a), 3)
    cb = select_maxroot_greedy(HermitianMatrix(b), 3)
    assert abs(ca.achieved_extreme - cb.achieved_extreme) <= 1e-9
    assert ca.certified_bound == pytest.approx(cb.certified_bound, abs=1e-9)


def test_certificate_inequality_enforced():
    with pytest.raises(CertificateViolation):
        SelectionCertificate((0,), 2.0, 1.0, SelectionMode.MAXROOT_GREEDY, None, ())
    with pytest.raises(CertificateViolation):
        SelectionCertificate((0,), 0.5, 1.0, SelectionMode.INVERTIBILITY, None, ())
    # within tolerance both directions are accepted
    SelectionCertificate((0,), 1.0, 1.0, SelectionMode.TWO_SIDED, None, ())
