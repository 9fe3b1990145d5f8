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
from dataclasses import dataclass

import numpy as np

from .barrier import (
    SpectralProfile,
    barrier_bound,
    bt_bound,
    modified_stable_rank,
    mrr_optimal_barrier,
    optimize_barrier,
    xst_params,
    zd1_bound,
    zd3_bound,
)
from .errors import (
    CertificateViolation,
    ConvergenceFailure,
    CRangeError,
    DegenerateProfile,
    DeltaRange,
    InputError,
    KOutOfRange,
    NotHermitian,
    NotPositiveContraction,
    SpectrumOutOfRange,
    ZeroOperator,
)
from .realroot import (
    PHI_INFINITY,
    RealRootedPoly,
    _check_count,
    _check_phi,
    _smax_batch,
    derivative_roots_batch,
    max_root,
    nth_derivative_roots,
    potential,
)


_HERMITIAN_TOL = 1e-12  # allowed |a - a*| entry, relative to max(1, max |a_ij|)


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
        dev = np.max(np.abs(a - a.conj().T))
        scale = max(1.0, float(np.max(np.abs(a))))
        if dev > _HERMITIAN_TOL * scale:
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


class SelectionMode(enum.Enum):
    MAXROOT_GREEDY = "MaxRootGreedy"
    SMAX_GREEDY = "SmaxGreedy"
    TWO_SIDED = "TwoSided"
    INVERTIBILITY = "Invertibility"
    COLUMN_SELECT = "ColumnSelect"


# modes whose certificate claims achieved <= bound; the rest claim >=
_UPPER_MODES = {SelectionMode.MAXROOT_GREEDY, SelectionMode.SMAX_GREEDY, SelectionMode.TWO_SIDED}


_CERTIFICATE_SLACK = 1e-8  # re-checked inequality's slack per unit of max(1, |achieved|, |bound|)


@dataclass(frozen=True)
class SelectionCertificate:
    kept_indices: tuple[int, ...]
    achieved_extreme: float
    certified_bound: float
    mode: SelectionMode
    phi_used: float | None
    removal_trace: tuple[int, ...]

    def __post_init__(self):
        ends = (self.achieved_extreme, self.certified_bound)  # inf must not make the slack inf
        slack = _CERTIFICATE_SLACK * max([1.0] + [abs(v) for v in ends if math.isfinite(v)])
        if self.mode in _UPPER_MODES:
            ok = self.achieved_extreme <= self.certified_bound + slack
        else:
            ok = self.achieved_extreme >= self.certified_bound - slack
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


_STACK_ENTRIES = 1 << 20  # most matrix entries gathered for one stacked eigensolve


def _candidate_eigs(entries: np.ndarray, live: list[int]) -> np.ndarray:
    """Eigenvalue rows for every defect-1 candidate (row t deletes live[t]), from
    stacked eigensolves of at most _STACK_ENTRIES entries; LAPACK sees each
    block's own bytes, so every row is bit-identical to solving it alone."""
    m = len(live)
    keep = np.asarray(live)[np.arange(m - 1) + np.triu(np.ones((m, m - 1), int))]
    step = max(1, _STACK_ENTRIES // (m - 1) ** 2)
    return np.concatenate([_eigs(entries[rows[:, :, None], rows[:, None, :]])
                           for rows in np.split(keep, range(step, m, step))])


def _pick(scores, live: list[int]) -> int:
    """Position of the minimal score; ties go to the smallest matrix index."""
    return min(range(len(live)), key=lambda t: (float(scores[t]), live[t]))


def _greedy(entries: np.ndarray, keep: int, score) -> tuple[list[int], list[int]]:
    """The defect-1 greedy shared by every selector.

    Each round `score` maps the (m, m - 1) eigenvalue rows of the m candidates
    to one score per candidate, and the candidate with the smallest score
    loses its index.  Returns the kept indices and the removal order.
    """
    live = list(range(entries.shape[0]))
    trace: list[int] = []
    while len(live) > keep:
        scores = score(_candidate_eigs(entries, live))
        trace.append(live.pop(_pick(scores, live)))
    return live, trace


def _certify(a: HermitianMatrix, live: list[int], trace, bound: float,
             mode: SelectionMode, phi: float | None = None) -> SelectionCertificate:
    """Certificate for the kept block of `a`, with the extreme eigenvalue the
    mode's bound speaks about: the smallest for invertibility, the larger
    modulus for two-sided, the largest otherwise."""
    ev = _eigs(a.entries[np.ix_(live, live)])
    if mode is SelectionMode.INVERTIBILITY:
        achieved = ev[0]
    elif mode is SelectionMode.TWO_SIDED:
        achieved = max(abs(ev[0]), abs(ev[-1]))
    else:
        achieved = ev[-1]
    return SelectionCertificate(tuple(live), float(achieved), float(bound),
                                mode, phi, tuple(trace))


def select_maxroot_greedy(a: HermitianMatrix, k: int) -> SelectionCertificate:
    """Greedy removal minimising the max root of the candidate's derivative.

    At matrix size m the compared polynomial is the (m - 1 - k)-th derivative
    of the candidate charpoly, so the final comparison is between actual
    degree-k charpolys.  All m candidates of a round go down the derivative
    chain together, one batched call per derivative order.  Certified bound:
    max root of the (n - k)-th derivative of the full charpoly.
    """
    n = a.n
    k = _check_count(k, 1, n - 1, KOutOfRange, "subset size")
    bound = max_root(nth_derivative_roots(charpoly_as_roots(a), n - k))

    def score(rows: np.ndarray) -> np.ndarray:
        for _ in range(rows.shape[1] - k):
            rows = derivative_roots_batch(rows)
        return rows[:, -1]

    live, trace = _greedy(a.entries, k, score)
    return _certify(a, live, trace, bound, SelectionMode.MAXROOT_GREEDY)


def select_smax_greedy(a: HermitianMatrix, k: int,
                       phi: float | None = None) -> SelectionCertificate:
    """Greedy removal minimising the soft maximum at fixed potential phi.

    Each round the chosen candidate's smax drops by at least 1/phi, so the
    certified bound is smax_phi(charpoly) - (n - k)/phi.  phi=None takes the
    barrier optimum's phi for n - k removals, and n on a one-point spectrum.
    """
    n = a.n
    k = _check_count(k, 1, n - 1, KOutOfRange, "subset size")
    chi = charpoly_as_roots(a)
    if phi is None:
        phi, _ = _greedy_phi(chi, n - k, None)
        phi = float(n) if phi is PHI_INFINITY else phi
    _check_phi(phi)
    phi = float(phi)
    bound = barrier_bound(chi, n - k, phi)
    live, trace = _greedy(a.entries, k, lambda rows: _smax_batch(rows, phi))
    return _certify(a, live, trace, bound, SelectionMode.SMAX_GREEDY, phi)


_SPECTRUM_SLACK = 1e-10  # eigenvalues may overshoot [0, 1] or [-1, 1] by this much
_ZERO_TRACE_TOL = 1e-8  # |trace| at or below this counts as a zero trace
_BARRIER_CLEARANCE = 1e-9  # a closed-form barrier must clear the top root by this


def _spectrum_checks(ev: np.ndarray) -> None:
    if ev[0] < -1.0 - _SPECTRUM_SLACK or ev[-1] > 1.0 + _SPECTRUM_SLACK:
        raise SpectrumOutOfRange(
            f"spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] not contained in [-1, 1]")


def _greedy_phi(chi: RealRootedPoly, k_d: int, b_star: float | None):
    """(phi, closed) for the greedy: the potential at the closed-form barrier
    b_star when it clears the top root of chi (closed is True), else the phi
    of the barrier optimum for k_d removals (PHI_INFINITY on one point)."""
    if b_star is not None and b_star > max_root(chi) + _BARRIER_CLEARANCE:
        return potential(chi, b_star), True
    return optimize_barrier(chi, k_d).optimal_phi, False


def select_low_norm(a: HermitianMatrix, keep: int) -> SelectionCertificate:
    """Keep `keep` indices of a spectrum-normalized matrix with a norm-side bound.

    Positive contractions run directly (mean-alpha closed form); matrices with
    spectrum in [-1, 1] are shifted to (A + I)/2 first and the bound mapped
    back.  Traces within 1e-8 of zero are treated as exactly zero, which gives
    the 2*sqrt(c - c^2) closed form.  Outside the closed forms' validity the
    barrier optimum supplies both phi and the certified bound.
    """
    n = a.n
    keep = _check_count(keep, 1, n - 1, KOutOfRange, "subset size")
    ev = eigenvalues(a)
    k_d = n - keep
    c_d = k_d / n

    if ev[0] >= -_SPECTRUM_SLACK:
        # already a positive contraction (allow unit-norm dust)
        if ev[-1] > 1.0 + _SPECTRUM_SLACK:
            raise SpectrumOutOfRange(f"largest eigenvalue {ev[-1]:.6g} exceeds 1")
        m_entries = a.entries
        ev_m = ev
        traceless = False
    else:
        _spectrum_checks(ev)
        m_entries = (a.entries + np.eye(n)) / 2.0
        ev_m = (ev + 1.0) / 2.0
        traceless = abs(float(np.sum(ev))) <= _ZERO_TRACE_TOL

    alpha = float(np.clip(np.mean(ev_m), 0.0, 1.0))
    chi_m = RealRootedPoly(tuple(ev_m))

    closed_ok = c_d >= alpha and c_d < 1.0 and alpha > 0.0
    b_star = mrr_optimal_barrier(alpha, c_d) if closed_ok else None
    phi_used, closed = _greedy_phi(chi_m, k_d, b_star)
    if closed and traceless:
        bound = zd1_bound(c_d)
    else:
        bound_m = zd3_bound(alpha, keep / n) if closed else barrier_bound(chi_m, k_d, phi_used)
        bound = bound_m if m_entries is a.entries else 2.0 * bound_m - 1.0
    if phi_used is PHI_INFINITY:
        # degenerate span: any subset achieves the common eigenvalue
        return _certify(a, list(range(keep)), range(keep, n), bound,
                        SelectionMode.SMAX_GREEDY)

    live, trace = _greedy(m_entries, keep, lambda rows: _smax_batch(rows, phi_used))
    return _certify(a, live, trace, bound, SelectionMode.SMAX_GREEDY, phi_used)


def select_two_sided(a: HermitianMatrix, c: float) -> SelectionCertificate:
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
    zero_diag = float(np.max(np.abs(diag))) <= 1e-10
    tr = float(np.real(np.trace(a.entries)))
    if not zero_diag and abs(tr) > _ZERO_TRACE_TOL:
        raise SpectrumOutOfRange("requires a zero diagonal or zero trace")
    ev = eigenvalues(a)
    _spectrum_checks(ev)
    keep1 = math.floor(c * n)
    keep2 = math.floor(c * c * n)
    if keep2 < 1:
        raise CRangeError(f"floor(c^2 n) = {keep2}; nothing would survive stage 2")

    stage1 = select_low_norm(a, keep1)
    s1 = list(stage1.kept_indices)
    a1 = a.entries[np.ix_(s1, s1)]
    stage2 = select_low_norm(HermitianMatrix(-a1), keep2)
    s2 = [s1[j] for j in stage2.kept_indices]
    bound = max(stage1.certified_bound, stage2.certified_bound)
    trace = stage1.removal_trace + tuple(s1[j] for j in stage2.removal_trace)
    return _certify(a, s2, trace, bound, SelectionMode.TWO_SIDED)


def select_invertible(a: HermitianMatrix, delta: float) -> SelectionCertificate:
    """Keep floor(delta * modified-stable-rank * n) indices of a positive
    contraction so the kept block stays well invertible.

    The greedy runs on I - A with the barrier placed at the two-point-profile
    optimum (or the numeric barrier optimum where that closed form does not
    apply); the certified bound is tr(A)*(sqrt(1-c) - sqrt(delta-c))^2 at the
    realized kept fraction c (never larger than the ideal fraction, so the
    claim is conservative).
    """
    n = a.n
    if not 0.0 < delta <= 1.0:
        raise DeltaRange(f"delta = {delta} outside (0, 1]")
    ev = eigenvalues(a)
    if ev[0] < -_SPECTRUM_SLACK or ev[-1] > 1.0 + _SPECTRUM_SLACK:
        raise NotPositiveContraction(
            f"spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] not contained in [0, 1]")
    tr_a = float(np.mean(np.clip(ev, 0.0, 1.0)))
    tr_a2 = float(np.mean(np.clip(ev, 0.0, 1.0) ** 2))
    if tr_a <= 0.0:
        raise NotPositiveContraction("trace must be positive")
    c_ideal = delta * modified_stable_rank(tr_a, tr_a2)
    k = math.floor(c_ideal * n)
    if k < 1:
        raise DeltaRange(f"floor(delta * msr * n) = {k}; nothing would be kept")
    c_real = k / n

    if k == n:
        return _certify(a, list(range(n)), (), bt_bound(tr_a, delta, min(c_real, delta)),
                        SelectionMode.INVERTIBILITY)

    m_entries = np.eye(n) - a.entries
    ev_m = np.sort(1.0 - ev)
    chi_m = RealRootedPoly(tuple(ev_m))
    alpha_m = float(np.clip(np.mean(ev_m), 0.0, 1.0))
    beta_m = float(np.clip(np.mean(ev_m**2), alpha_m**2, alpha_m))
    c_d = (n - k) / n

    b_star = None
    if alpha_m < 1.0 - 1e-12:
        try:
            x, s, _ = xst_params(SpectralProfile(n, alpha_m, beta_m))
        except DegenerateProfile:
            pass  # no two-point surrogate: the barrier optimum places phi
        else:
            s = min(max(s, 0.0), 1.0)
            b_tilde = (1.0 - s) + math.sqrt(c_d / (1.0 - c_d)) * math.sqrt(s * (1.0 - s))
            b_star = x + (1.0 - x) * b_tilde
    phi_used, _ = _greedy_phi(chi_m, n - k, b_star)
    if phi_used is PHI_INFINITY:
        phi_used = float(n)  # degenerate spectrum: any phi works

    live, trace = _greedy(m_entries, k, lambda rows: _smax_batch(rows, phi_used))
    return _certify(a, live, trace, bt_bound(tr_a, delta, c_real),
                    SelectionMode.INVERTIBILITY, phi_used)


def select_columns(t: RectOperator, delta: float) -> SelectionCertificate:
    """Column subset with a certified least singular value.

    Runs the invertibility selector on the Gram matrix scaled to top
    eigenvalue 1 and certifies s_min >= sqrt(||T||^2 * its bound), the bound
    rescaled: (||T||_F / sqrt(m)) (sqrt(1-c) - sqrt(delta-c)) at kept fraction c.
    T is first scaled exactly by 2^-e, its largest entry then in [1/2, 1), so
    the Gram matrix stays normal; s_min and the bound are scaled back by 2^e.
    """
    if not 0.0 < delta <= 1.0:
        raise DeltaRange(f"delta = {delta} outside (0, 1]")
    e = max(int(np.frexp(np.max(np.abs(t.entries)))[1]), -1022)
    arr = t.entries * math.ldexp(1.0, -e)
    gram = arr.conj().T @ arr
    gram = (gram + gram.conj().T) / 2.0
    ev_g = _eigs(gram)
    top = float(ev_g[-1])
    if top <= 0.0:
        raise ZeroOperator("operator is numerically zero")
    inner = select_invertible(HermitianMatrix(gram / top), delta)
    kept = inner.kept_indices
    smin = math.ldexp(math.sqrt(max(float(_eigs(gram[np.ix_(kept, kept)])[0]), 0.0)), e)
    return SelectionCertificate(kept, smin, math.ldexp(math.sqrt(top * inner.certified_bound), e),
                                SelectionMode.COLUMN_SELECT, inner.phi_used,
                                inner.removal_trace)
