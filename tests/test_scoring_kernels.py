"""Bit-identity of the greedy's scoring kernels against frozen references.

`_smax_batch` stops its bisection at the fixed point and `_candidate_eigs`
solves every candidate of a round in one stacked eigensolve.  Both must give
the very bits of the straightforward versions kept below: the 110-step
bisection and one `eigvalsh` per candidate.  The greedy guard runs whole
selections both ways, so a kernel change that reorders tied scores fails
here instead of moving kept indices silently.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subforge import submatrix
from subforge.barrier import optimize_barrier
from subforge.realroot import PHI_INFINITY, _smax_batch, smax
from subforge.submatrix import (
    HermitianMatrix,
    _candidate_eigs,
    charpoly_as_roots,
    select_invertible,
    select_smax_greedy,
    select_two_sided,
)


def _frozen_smax_batch(roots, phi):
    """The bisection as it was: a fixed 110 steps unless every bracket is empty."""
    top = roots.max(axis=1, keepdims=True)
    d = top - roots
    m = roots.shape[1]
    lo = np.full(roots.shape[0], 1.0 / phi)
    hi = np.full(roots.shape[0], m / phi)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        f = np.sum(1.0 / (mid[:, None] + d), axis=1) - phi
        pos = f > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.max(hi - lo) <= 1e-16 * np.min(hi):
            break
    return top[:, 0] + 0.5 * (lo + hi)


def _frozen_candidate_eigs(entries, live):
    """One eigensolve per candidate, row t deleting live[t]."""
    idx = np.asarray(live)
    out = np.empty((len(live), len(live) - 1))
    for t in range(len(live)):
        keep = np.delete(idx, t)
        out[t] = np.linalg.eigvalsh(entries[np.ix_(keep, keep)])
    return out


def _frozen_greedy(entries, keep, score):
    """The defect-1 greedy on the frozen candidate eigensolves: the smallest
    score loses its index, exact ties going to the smallest index."""
    live = list(range(entries.shape[0]))
    trace = []
    while len(live) > keep:
        scores = score(_frozen_candidate_eigs(entries, live))
        t = min(range(len(live)), key=lambda t: (float(scores[t]), live[t]))
        trace.append(live.pop(t))
    return live, trace


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


@st.composite
def _root_rows(draw):
    """(rows, m) ascending root rows: gaussian, mixed-scale, or the 0/1
    spectra of projection candidates (with LAPACK-sized dust)."""
    m = draw(st.integers(2, 60))
    r = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "mixed", "projection"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "projection":
        ones = rng.integers(0, m + 1, size=r)
        rows = (np.arange(m)[None, :] >= m - ones[:, None]).astype(float)
        rows += draw(st.sampled_from([0.0, 1e-16])) * rng.standard_normal((r, m))
    else:
        rows = rng.standard_normal((r, m))
        if kind == "mixed":
            rows *= 10.0 ** rng.integers(-8, 9, size=(r, 1))
    return np.sort(rows, axis=1)


@settings(max_examples=300, deadline=None)
@given(rows=_root_rows(), log_phi=st.floats(-3.0, 9.0))
@example(rows=np.array([[0.0] * 20 + [1.0] * 19]), log_phi=np.log10(3.7e8))
@example(rows=np.array([[0.0, 1.0], [1.0, 1.0]]), log_phi=9.0)
def test_smax_batch_fixed_point_matches_full_bisection(rows, log_phi):
    phi = 10.0 ** log_phi
    assert _hex(_smax_batch(rows, phi)) == _hex(_frozen_smax_batch(rows, phi))


@st.composite
def _live_blocks(draw):
    n = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["complex", "real", "projection"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "real":
        a = (x.real + x.real.T) / 2
    elif kind == "complex":
        a = (x + x.conj().T) / 2
    else:
        q, _ = np.linalg.qr(x)
        r = draw(st.integers(1, n))
        a = q[:, :r] @ q[:, :r].conj().T
        a = (a + a.conj().T) / 2
    size = draw(st.integers(2, n))
    live = sorted(rng.choice(n, size=size, replace=False).tolist())
    return HermitianMatrix(a).entries, live


@settings(max_examples=150, deadline=None)
@given(block=_live_blocks(), limit=st.sampled_from([None, 1, 5, 40, 200]))
def test_candidate_eigs_stack_matches_one_solve_per_candidate(block, limit):
    # limit patches the stack size so that row blocks split the stack
    entries, live = block
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(submatrix, "_STACK_ENTRIES", limit)
        rows = _candidate_eigs(entries, live)
    assert rows.shape == (len(live), len(live) - 1)
    assert _hex(rows) == _hex(_frozen_candidate_eigs(entries, live))


def _projection(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = q[:, :r] @ q[:, :r].conj().T
    return (p + p.conj().T) / 2


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def _greedy_inputs(seed, n=40):
    """The benchmark's select-greedy shapes: smax on a random Hermitian or a
    rank-n/4 projection, invertibility (delta 1/2) on a random positive
    contraction or a rank-3n/4 projection, two-sided (c 1/2) on a zero-diagonal
    unit-norm matrix or 2P - I at rank n/2."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    contraction = g @ g.conj().T
    contraction = (contraction + contraction.conj().T) / 2
    zero_diag = _hermitian(rng, n)
    np.fill_diagonal(zero_diag, 0.0)
    return [
        ("smax", _hermitian(rng, n)),
        ("smax", _projection(rng, n, n // 4)),
        ("invertible", contraction / np.linalg.eigvalsh(contraction)[-1]),
        ("invertible", _projection(rng, n, 3 * n // 4)),
        ("two-sided", zero_diag / np.max(np.abs(np.linalg.eigvalsh(zero_diag)))),
        ("two-sided", 2 * _projection(rng, n, n // 2) - np.eye(n)),
    ]


def _select(mode, a):
    if mode == "invertible":
        return select_invertible(a, 0.5)
    if mode == "two-sided":
        return select_two_sided(a, 0.5)
    k = a.n // 2
    phi = optimize_barrier(charpoly_as_roots(a), a.n - k).optimal_phi
    return select_smax_greedy(a, k, float(a.n) if phi is PHI_INFINITY else phi)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_greedy_selections_match_frozen_reference_greedy(seed, monkeypatch):
    for mode, entries in _greedy_inputs(seed):
        a = HermitianMatrix(entries)
        cert = _select(mode, a)
        with monkeypatch.context() as mp:
            mp.setattr(submatrix, "_greedy", _frozen_greedy)
            mp.setattr(submatrix, "_smax_batch", _frozen_smax_batch)
            ref = _select(mode, a)
        assert cert.kept_indices == ref.kept_indices, mode
        assert cert.removal_trace == ref.removal_trace, mode
        assert cert.certified_bound.hex() == ref.certified_bound.hex(), mode


def _frozen_auto_phi_select(a, k):
    """The auto-phi path as it was: the CLI took the barrier optimum's phi (n
    on a one-point spectrum) and the selector certified smax_phi - (n - k)/phi."""
    report = optimize_barrier(charpoly_as_roots(a), a.n - k)
    phi = float(a.n) if report.optimal_phi is PHI_INFINITY else report.optimal_phi
    bound = smax(charpoly_as_roots(a), phi) - (a.n - k) / phi
    return select_smax_greedy(a, k, phi), bound


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_auto_phi_matches_frozen_cli_path(seed):
    rng = np.random.default_rng(seed)
    n = 16
    inputs = [_hermitian(rng, n), rng.standard_normal((n, n)), _projection(rng, n, n // 4),
              _projection(rng, n, n // 2), -0.75 * np.eye(n)]
    for entries in inputs:
        a = HermitianMatrix((entries + entries.conj().T) / 2)
        for k in (1, n // 2, n - 1):
            cert = select_smax_greedy(a, k)
            ref, bound = _frozen_auto_phi_select(a, k)
            assert cert.kept_indices == ref.kept_indices
            assert cert.removal_trace == ref.removal_trace
            assert cert.phi_used.hex() == ref.phi_used.hex()
            assert cert.achieved_extreme.hex() == ref.achieved_extreme.hex()
            assert cert.certified_bound.hex() == bound.hex()
