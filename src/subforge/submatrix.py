"""Principal submatrix selection with certified spectral bounds.

Every selector is a defect-1 greedy: it removes one index per round, scoring
each candidate submatrix through its characteristic polynomial (max root of a
derivative, or a soft maximum at a fixed barrier potential).  Averaging over
defect-1 submatrices equals differentiating the characteristic polynomial, so
some candidate always does at least as well as the average; the greedy
certificate records the resulting bound, and the constructed
SelectionCertificate re-checks its own inequality.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import config
from .barrier import (
    BoundReport,
    SpectralProfile,
    bt_bound,
    mrr_optimal_barrier,
    optimize_barrier,
    xst_params,
    zd1_bound,
    zd3_bound,
)
from .config import DEFAULT, Tolerances
from .errors import (
    CertificateViolation,
    ConvergenceFailure,
    CRangeError,
    DeltaRange,
    InputError,
    KOutOfRange,
    NonPositivePhi,
    NotHermitian,
    NotPositiveContraction,
    SizeTooLarge,
    SpectrumOutOfRange,
    ZeroOperator,
)
from .oracle import charpoly_coeffs_unchecked, derivative_coeffs
from .realroot import (
    RealRootedPoly,
    _smax_batch,
    derivative_roots_batch,
    max_root,
    nth_derivative_roots,
    potential,
    smax,
)


@dataclass(frozen=True)
class HermitianMatrix:
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotHermitian("matrix must be square")
        if a.shape[0] < 1:
            raise NotHermitian("matrix must be nonempty")
        if not np.all(np.isfinite(a)):
            raise NotHermitian("matrix entries must be finite")
        dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if dev > DEFAULT.hermitian * scale:
            raise NotHermitian(f"conjugate-symmetry deviation {dev:.3e} exceeds tolerance")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RectOperator:
    entries: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=complex)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise InputError("operator must be a nonempty 2-d array")
        object.__setattr__(self, "entries", t)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


class SelectionMode(enum.Enum):
    MAXROOT_GREEDY = "MaxRootGreedy"
    SMAX_GREEDY = "SmaxGreedy"
    TWO_SIDED = "TwoSided"
    INVERTIBILITY = "Invertibility"
    COLUMN_SELECT = "ColumnSelect"


# modes whose certificate claims achieved <= bound; the rest claim >=
_UPPER_MODES = {SelectionMode.MAXROOT_GREEDY, SelectionMode.SMAX_GREEDY, SelectionMode.TWO_SIDED}


@dataclass(frozen=True)
class SelectionCertificate:
    kept_indices: tuple[int, ...]
    achieved_extreme: float
    certified_bound: float
    mode: SelectionMode
    phi_used: float | None
    removal_trace: tuple[int, ...]

    def __post_init__(self):
        if self.mode in _UPPER_MODES:
            ok = self.achieved_extreme <= self.certified_bound + DEFAULT.certificate
        else:
            ok = self.achieved_extreme >= self.certified_bound - DEFAULT.certificate
        if not ok:
            raise CertificateViolation(
                f"{self.mode.value}: achieved {self.achieved_extreme} violates "
                f"bound {self.certified_bound}"
            )


def _eigs(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(str(e)) from e


def eigenvalues(a: HermitianMatrix) -> np.ndarray:
    """Ascending eigenvalues (Householder tridiagonalization route, via LAPACK)."""
    return _eigs(a.entries)


def charpoly_as_roots(a: HermitianMatrix) -> RealRootedPoly:
    return RealRootedPoly(tuple(eigenvalues(a)))


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


def _candidate_eigs(entries: np.ndarray, live: list[int]) -> np.ndarray:
    """Eigenvalue rows for every defect-1 candidate of the live submatrix."""
    m = len(live)
    idx = np.asarray(live)
    out = np.empty((m, m - 1))

    def solve(t: int) -> np.ndarray:
        keep = np.delete(idx, t)
        return _eigs(entries[np.ix_(keep, keep)])

    workers = config.worker_count()
    if workers > 1 and m > 2:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(solve, range(m)))
    else:
        rows = [solve(t) for t in range(m)]
    for t, r in enumerate(rows):
        out[t] = r
    return out


def _pick(scores, live: list[int]) -> int:
    """Position of the minimal score; ties go to the smallest matrix index."""
    return min(range(len(live)), key=lambda t: (float(scores[t]), live[t]))


def _check_keep(n: int, k) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise KOutOfRange("subset size must be an integer")
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"subset size {k} outside [1, {n - 1}]")
    return int(k)


def select_maxroot_greedy(a: HermitianMatrix, k: int, tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Greedy removal minimising the max root of the candidate's derivative.

    At matrix size m the compared polynomial is the (m - 1 - k)-th derivative
    of the candidate charpoly, so the final comparison is between actual
    degree-k charpolys.  All m candidates of a round go down the derivative
    chain together, one batched call per derivative order.  Certified bound:
    max root of the (n - k)-th derivative of the full charpoly.
    """
    n = a.n
    k = _check_keep(n, k)
    bound = max_root(nth_derivative_roots(charpoly_as_roots(a), n - k, tol))
    live = list(range(n))
    trace: list[int] = []
    while len(live) > k:
        rows = np.sort(_candidate_eigs(a.entries, live), axis=1)
        for _ in range(len(live) - 1 - k):
            rows = derivative_roots_batch(rows, tol)
        trace.append(live.pop(_pick(rows[:, -1], live)))
    achieved = float(_eigs(a.entries[np.ix_(live, live)])[-1])
    return SelectionCertificate(tuple(live), achieved, float(bound),
                                SelectionMode.MAXROOT_GREEDY, None, tuple(trace))


def _smax_greedy_core(entries: np.ndarray, k: int, phi: float) -> tuple[list[int], list[int]]:
    n = entries.shape[0]
    live = list(range(n))
    trace: list[int] = []
    while len(live) > k:
        eig_rows = _candidate_eigs(entries, live)
        scores = _smax_batch(eig_rows, phi)
        trace.append(live.pop(_pick(scores, live)))
    return live, trace


def select_smax_greedy(a: HermitianMatrix, k: int, phi: float,
                       tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Greedy removal minimising the soft maximum at fixed potential phi.

    Each round the chosen candidate's smax drops by at least 1/phi, so the
    certified bound is smax_phi(charpoly) - (n - k)/phi.
    """
    n = a.n
    k = _check_keep(n, k)
    if not (isinstance(phi, (int, float, np.floating)) and np.isfinite(phi) and phi > 0):
        raise NonPositivePhi(f"phi must be positive and finite, got {phi!r}")
    phi = float(phi)
    bound = smax(charpoly_as_roots(a), phi, tol) - (n - k) / phi
    live, trace = _smax_greedy_core(a.entries, k, phi)
    achieved = float(_eigs(a.entries[np.ix_(live, live)])[-1])
    return SelectionCertificate(tuple(live), achieved, float(bound),
                                SelectionMode.SMAX_GREEDY, phi, tuple(trace))


def _spectrum_checks(ev: np.ndarray) -> None:
    if ev[0] < -1.0 - 1e-10 or ev[-1] > 1.0 + 1e-10:
        raise SpectrumOutOfRange(
            f"spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] not contained in [-1, 1]")


def select_low_norm(a: HermitianMatrix, keep: int, tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Keep `keep` indices of a spectrum-normalized matrix with a norm-side bound.

    Positive contractions run directly (mean-alpha closed form); matrices with
    spectrum in [-1, 1] are shifted to (A + I)/2 first and the bound mapped
    back.  Traces within 1e-8 of zero are treated as exactly zero, which gives
    the 2*sqrt(c - c^2) closed form.  Outside the closed forms' validity the
    barrier optimum supplies both phi and the certified bound.
    """
    n = a.n
    keep = _check_keep(n, keep)
    ev = eigenvalues(a)
    k_d = n - keep
    c_d = k_d / n

    if ev[0] >= -1e-10:
        # already a positive contraction (allow unit-norm dust)
        if ev[-1] > 1.0 + 1e-10:
            raise SpectrumOutOfRange(f"largest eigenvalue {ev[-1]:.6g} exceeds 1")
        m_entries = a.entries
        ev_m = ev
        traceless = False
    else:
        _spectrum_checks(ev)
        m_entries = (a.entries + np.eye(n)) / 2.0
        ev_m = (ev + 1.0) / 2.0
        traceless = abs(float(np.sum(ev))) <= 1e-8

    alpha = float(np.clip(np.mean(ev_m), 0.0, 1.0))
    chi_m = RealRootedPoly(tuple(ev_m))

    closed_ok = c_d >= alpha and c_d < 1.0 and alpha > 0.0
    phi_used = None
    if closed_ok:
        b_star = mrr_optimal_barrier(alpha, c_d)
        if b_star > max_root(chi_m) + 1e-9:
            phi_used = potential(chi_m, b_star, tol)
        else:
            closed_ok = False
    if closed_ok:
        if traceless:
            bound = zd1_bound(c_d)
        else:
            bound_m = zd3_bound(alpha, keep / n)
            bound = bound_m if m_entries is a.entries else 2.0 * bound_m - 1.0
    else:
        report = optimize_barrier(chi_m, k_d, tol)
        phi_used = report.optimal_phi
        bound_m = report.bound
        bound = bound_m if m_entries is a.entries else 2.0 * bound_m - 1.0
        if not isinstance(phi_used, float):
            # degenerate span: any subset achieves the common eigenvalue
            live = list(range(keep))
            achieved = float(_eigs(a.entries[np.ix_(live, live)])[-1])
            return SelectionCertificate(tuple(live), achieved, float(bound),
                                        SelectionMode.SMAX_GREEDY, None,
                                        tuple(range(keep, n)))

    live, trace = _smax_greedy_core(m_entries, keep, phi_used)
    achieved = float(_eigs(a.entries[np.ix_(live, live)])[-1])
    return SelectionCertificate(tuple(live), achieved, float(bound),
                                SelectionMode.SMAX_GREEDY, float(phi_used), tuple(trace))


def select_two_sided(a: HermitianMatrix, c: float, tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Two-stage norm control: bound lambda_max, then lambda_min on the negation.

    Needs a zero diagonal (or zero trace) and spectrum in [-1, 1]; keeps
    floor(c*n) indices, then floor(c^2*n) of those.  Certified bound is the
    worse of the two stage bounds; with a zero diagonal both stages stay
    traceless and the bound is at most 2*sqrt(c - c^2).
    """
    n = a.n
    if not 0.0 < c <= 0.5:
        raise CRangeError(f"c = {c} outside (0, 1/2]")
    diag = np.diag(a.entries)
    zero_diag = float(np.max(np.abs(diag))) <= 1e-10 if n else True
    tr = float(np.real(np.trace(a.entries)))
    if not zero_diag and abs(tr) > 1e-8:
        raise SpectrumOutOfRange("requires a zero diagonal or zero trace")
    ev = eigenvalues(a)
    _spectrum_checks(ev)
    keep1 = math.floor(c * n)
    keep2 = math.floor(c * c * n)
    if keep2 < 1:
        raise CRangeError(f"floor(c^2 n) = {keep2}; nothing would survive stage 2")

    stage1 = select_low_norm(a, keep1, tol)
    s1 = list(stage1.kept_indices)
    a1 = a.entries[np.ix_(s1, s1)]
    stage2 = select_low_norm(HermitianMatrix(-a1), keep2, tol)
    s2 = [s1[j] for j in stage2.kept_indices]

    final_ev = _eigs(a.entries[np.ix_(s2, s2)])
    achieved = float(max(abs(final_ev[0]), abs(final_ev[-1])))
    bound = max(stage1.certified_bound, stage2.certified_bound)
    trace = tuple(stage1.removal_trace) + tuple(s1[j] for j in stage2.removal_trace)
    return SelectionCertificate(tuple(s2), achieved, float(bound),
                                SelectionMode.TWO_SIDED, None, trace)


def select_invertible(a: HermitianMatrix, delta: float, tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Keep floor(delta * modified-stable-rank * n) indices of a positive
    contraction so the kept block stays well invertible.

    The greedy runs on I - A with the barrier placed at the two-point-profile
    optimum; the certified bound is tr(A)*(sqrt(1-c) - sqrt(delta-c))^2 at the
    realized kept fraction c (never larger than the ideal fraction, so the
    claim is conservative).
    """
    n = a.n
    if not 0.0 < delta <= 1.0:
        raise DeltaRange(f"delta = {delta} outside (0, 1]")
    ev = eigenvalues(a)
    if ev[0] < -1e-10 or ev[-1] > 1.0 + 1e-10:
        raise NotPositiveContraction(
            f"spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] not contained in [0, 1]")
    tr_a = float(np.mean(np.clip(ev, 0.0, 1.0)))
    tr_a2 = float(np.mean(np.clip(ev, 0.0, 1.0) ** 2))
    if tr_a <= 0.0:
        raise NotPositiveContraction("trace must be positive")
    msr = tr_a * tr_a / tr_a2
    c_ideal = delta * msr
    k = math.floor(c_ideal * n)
    if k < 1:
        raise DeltaRange(f"floor(delta * msr * n) = {k}; nothing would be kept")
    c_real = k / n

    if k == n:
        live = list(range(n))
        achieved = float(ev[0])
        bound = bt_bound(tr_a, delta, min(c_real, delta))
        return SelectionCertificate(tuple(live), achieved, float(bound),
                                    SelectionMode.INVERTIBILITY, None, ())

    m_entries = np.eye(n) - a.entries
    ev_m = np.sort(1.0 - ev)
    chi_m = RealRootedPoly(tuple(ev_m))
    alpha_m = float(np.clip(np.mean(ev_m), 0.0, 1.0))
    beta_m = float(np.clip(np.mean(ev_m**2), alpha_m**2, alpha_m))
    c_d = (n - k) / n

    phi_used = None
    if alpha_m < 1.0 - 1e-12:
        x, s, _ = xst_params(SpectralProfile(n, alpha_m, beta_m))
        s = min(max(s, 0.0), 1.0)
        b_tilde = (1.0 - s) + math.sqrt(c_d / (1.0 - c_d)) * math.sqrt(s * (1.0 - s))
        b_star = x + (1.0 - x) * b_tilde
        if b_star > max_root(chi_m) + 1e-9:
            phi_used = potential(chi_m, b_star, tol)
    if phi_used is None:
        phi_used = optimize_barrier(chi_m, n - k, tol).optimal_phi
        if not isinstance(phi_used, float):
            phi_used = float(n)  # degenerate spectrum: any phi works

    live, trace = _smax_greedy_core(m_entries, k, phi_used)
    achieved = float(_eigs(a.entries[np.ix_(live, live)])[0])
    bound = bt_bound(tr_a, delta, c_real)
    return SelectionCertificate(tuple(live), achieved, float(bound),
                                SelectionMode.INVERTIBILITY, float(phi_used), tuple(trace))


def select_columns(t: RectOperator, delta: float, tol: Tolerances = DEFAULT) -> SelectionCertificate:
    """Column subset with a certified least singular value.

    Runs the invertibility selector on the normalized Gram matrix; keeps
    floor(delta * ||T||_2^4 / ||T||_4^4) columns and certifies
    s_min >= (||T||_2 / sqrt(m)) * (sqrt(1-c) - sqrt(delta-c)).
    """
    if not 0.0 < delta <= 1.0:
        raise DeltaRange(f"delta = {delta} outside (0, 1]")
    arr = t.entries
    m = t.cols
    gram = arr.conj().T @ arr
    gram = (gram + gram.conj().T) / 2.0
    ev_g = _eigs(gram)
    top = float(ev_g[-1])
    if top <= 0.0:
        raise ZeroOperator("operator is numerically zero")
    inner = select_invertible(HermitianMatrix(gram / top), delta, tol)
    kept = inner.kept_indices
    c = len(kept) / m
    sub = gram[np.ix_(kept, kept)]
    smin = math.sqrt(max(float(_eigs(sub)[0]), 0.0))
    norm2 = math.sqrt(max(float(np.real(np.trace(gram))), 0.0))
    bound = (norm2 / math.sqrt(m)) * (math.sqrt(1.0 - c) - math.sqrt(max(delta - c, 0.0)))
    return SelectionCertificate(kept, smin, float(bound),
                                SelectionMode.COLUMN_SELECT, inner.phi_used,
                                inner.removal_trace)
