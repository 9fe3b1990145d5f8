"""Acceptance gate: one test per criterion, each recording a summary line.

Every test computes its verdict first, records a human-readable line through
conftest.record (printed in the terminal summary), then asserts.  Tolerances
and instance counts are part of the contract; do not loosen them.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import subforge
from subforge.barrier import optimize_barrier
from subforge.gausslucas import (
    ComplexPoly,
    check_chain,
    complex_roots,
    derivative,
    gl_area_report,
    hull,
    hull_contains,
    rr_spread_report,
    sharpness_experiment,
)
from subforge.oracle import brute_force_best_subset, thompson_residual
from subforge.realroot import RealRootedPoly, nth_derivative_roots, smax
from subforge.barrier import SpectralProfile, refined_potential_bound
from subforge.submatrix import (
    HermitianMatrix,
    RectOperator,
    charpoly_as_roots,
    select_columns,
    select_invertible,
    select_low_norm,
    select_smax_greedy,
)
from conftest import rand_contraction, rand_herm, rand_traceless_unit, record
from reference import grid_search_potential

pc = np.polynomial.polynomial


def test_criterion_01_defect_sum_identity():
    # 100 random Hermitian matrices, n in 3..12: the defect-1 charpolys sum
    # to the derivative of the full charpoly, residual <= 1e-8, under 10 s
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        n = 3 + i % 10
        worst = max(worst, thompson_residual(HermitianMatrix(rand_herm(rng, n))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    record(1, ok, f"defect-sum residual max {worst:.3e} over 100 matrices "
                  f"(tol 1e-8) in {elapsed:.2f}s (budget 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_existence_vs_exhaustive():
    # 50 random n=8 matrices: the best 4-subset never beats the 4th
    # derivative's max root by more than 1e-8, under 30 s
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst = np.inf
    for _ in range(50):
        a = rand_herm(rng, 8)
        _, achieved = brute_force_best_subset(a, 4)
        bound = nth_derivative_roots(charpoly_as_roots(HermitianMatrix(a)), 4).roots[-1]
        worst = min(worst, bound - achieved)
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-8 and elapsed < 30.0
    record(2, ok, f"existence margin min {worst:.3e} over 50 exhaustive searches "
                  f"(tol -1e-8) in {elapsed:.2f}s (budget 30s)")
    assert worst >= -1e-8
    assert elapsed < 30.0


def test_criterion_03_greedy_descent():
    # replaying 50 removal traces at n=20: every step drops smax by >= 1/phi
    rng = np.random.default_rng(103)
    worst = np.inf
    for _ in range(50):
        a = rand_herm(rng, 20)
        k = int(rng.integers(1, 19))
        phi = float(rng.uniform(0.5, 5.0))
        cert = select_smax_greedy(HermitianMatrix(a), k, phi)
        live = list(range(20))
        prev = smax(RealRootedPoly(tuple(np.linalg.eigvalsh(a))), phi)
        for idx in cert.removal_trace:
            live.remove(idx)
            cur = smax(RealRootedPoly(tuple(np.linalg.eigvalsh(a[np.ix_(live, live)]))), phi)
            worst = min(worst, (prev - cur) - 1.0 / phi)
            prev = cur
    ok = worst >= -1e-8
    record(3, ok, f"greedy descent slack min {worst:.3e} over 50 traces at n=20 (tol -1e-8)")
    assert worst >= -1e-8


def test_criterion_04_zero_trace_norm_bound():
    # 20 traceless matrices, n=40, spectrum in [-1,1], keep 10: the kept
    # block's top eigenvalue stays under sqrt(3)/2 + 1e-6, within 2 min
    rng = np.random.default_rng(104)
    t0 = time.monotonic()
    target = math.sqrt(3) / 2
    worst = -np.inf
    for _ in range(20):
        a = rand_traceless_unit(rng, 40)
        cert = select_low_norm(HermitianMatrix(a), 10)
        sub = a[np.ix_(cert.kept_indices, cert.kept_indices)]
        achieved = float(np.linalg.eigvalsh(sub)[-1])
        worst = max(worst, achieved)
    elapsed = time.monotonic() - t0
    ok = worst <= target + 1e-6 and elapsed < 120.0
    record(4, ok, f"traceless keep-10-of-40 max eigenvalue {worst:.6f} <= "
                  f"sqrt(3)/2 + 1e-6 over 20 trials in {elapsed:.2f}s (budget 120s)")
    assert worst <= target + 1e-6
    assert elapsed < 120.0


def test_criterion_05_invertibility_lower_bound():
    # 20 positive contractions, n=30, both delta values: kept block's least
    # eigenvalue reaches the certified closed-form bound
    rng = np.random.default_rng(105)
    worst = np.inf
    for i in range(20):
        a = rand_contraction(rng, 30)
        cert = select_invertible(HermitianMatrix(a), 0.5 if i % 2 == 0 else 0.9)
        sub = a[np.ix_(cert.kept_indices, cert.kept_indices)]
        lam_min = float(np.linalg.eigvalsh(sub)[0])
        worst = min(worst, lam_min - cert.certified_bound)
    ok = worst >= -1e-6
    record(5, ok, f"invertibility margin min {worst:.3e} over 20 contractions "
                  f"at delta in {{0.5, 0.9}} (tol -1e-6)")
    assert worst >= -1e-6


def test_criterion_06_column_selection():
    # 10 random 20x40 operators at delta = 0.8: the kept columns' least
    # singular value reaches the certified bound, cross-checked through svd
    rng = np.random.default_rng(106)
    worst = np.inf
    replay_dev = 0.0
    for _ in range(10):
        t = (rng.standard_normal((20, 40)) + 1j * rng.standard_normal((20, 40))) / 2.0
        cert = select_columns(RectOperator(t), 0.8)
        block = t[:, list(cert.kept_indices)]
        smin = float(np.linalg.svd(block, compute_uv=False)[-1])
        replay_dev = max(replay_dev, abs(smin - cert.achieved_extreme))
        worst = min(worst, smin - cert.certified_bound)
    ok = worst >= -1e-6 and replay_dev <= 1e-6
    record(6, ok, f"column-selection margin min {worst:.3e}, svd replay deviation "
                  f"{replay_dev:.3e} over 10 operators (tol 1e-6)")
    assert worst >= -1e-6
    assert replay_dev <= 1e-6


def test_criterion_07_barrier_dominates_truth():
    # 500 random real-rooted polynomials up to degree 60: the optimized
    # barrier bound never undercuts the exact derivative max root; the
    # two-point anchor reproduces the closed-form value to 1e-6
    rng = np.random.default_rng(107)
    worst = np.inf
    for _ in range(500):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(0, n))
        p = RealRootedPoly(tuple(np.sort(rng.normal(0.0, 2.0, n))))
        bound = optimize_barrier(p, k).bound
        exact = nth_derivative_roots(p, k).roots[-1]
        worst = min(worst, bound - exact)
    anchor = optimize_barrier(RealRootedPoly((0.0,) * 20 + (1.0,) * 20), 30).bound
    anchor_dev = abs(anchor - 0.933013)
    ok = worst >= -1e-9 and anchor_dev <= 1e-6
    record(7, ok, f"barrier-vs-truth margin min {worst:.3e} over 500 polynomials; "
                  f"two-point anchor off by {anchor_dev:.2e} (tol 1e-6)")
    assert worst >= -1e-9
    assert anchor_dev <= 1e-6


def test_criterion_08_refined_bound_dominates_grid():
    # exhaustive grid potentials never exceed the two-point closed form plus
    # the documented relaxation slack 5n/(g(b-1)^2)
    n, g = 4, 40
    pairs = [(0.5, 0.5), (0.5, 0.375), (0.5, 0.25), (0.25, 0.25), (0.75, 0.625)]
    worst = -np.inf
    for b in (1.5, 2.0, 5.0):
        slack = 5.0 * n / (g * (b - 1.0) ** 2)
        for alpha, beta in pairs:
            grid = grid_search_potential(alpha, beta, b, n, g)
            refined = refined_potential_bound(SpectralProfile(n, alpha, beta), b)
            worst = max(worst, grid - refined - slack)
    ok = worst <= 0.0
    record(8, ok, f"grid-minus-refined-minus-slack max {worst:.3e} over 15 cases (must be <= 0)")
    assert worst <= 0.0


def test_criterion_09_hull_area_contraction():
    # 100 random unit-disc polynomials, degrees 8..24, c cycling through
    # {0.5, 0.6, 0.75, 0.9}: area ratio within 4(c-c^2) + 1e-6, hull areas
    # nested along the whole derivative chain, centroid preserved, and every
    # derivative root inside the original hull
    rng = np.random.default_rng(109)
    cs = (0.5, 0.6, 0.75, 0.9)
    worst_ratio_excess = -np.inf
    worst_nest = -np.inf
    worst_centroid = 0.0
    containment_misses = 0
    for i in range(100):
        deg = int(rng.integers(8, 25))
        radii = np.sqrt(rng.uniform(0.0, 1.0, deg))
        zs = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, deg))
        p = ComplexPoly(tuple(pc.polyfromroots(zs)))
        c = cs[i % 4]
        r = gl_area_report(p, c)
        worst_ratio_excess = max(worst_ratio_excess, r.value - r.bound)
        h0 = hull(complex_roots(p))
        prev_area = h0.area
        for k in range(1, deg):
            rs = complex_roots(derivative(p, k))
            hk = hull(rs)
            worst_nest = max(worst_nest, hk.area - prev_area)
            worst_centroid = max(worst_centroid, abs(hk.centroid - h0.centroid))
            containment_misses += sum(
                0 if hull_contains(h0, z, 1e-8) else 1 for z in rs.points)
            prev_area = hk.area
    ok = (worst_ratio_excess <= 1e-6 and worst_nest <= 1e-9
          and worst_centroid <= 1e-8 and containment_misses == 0)
    record(9, ok, f"area-ratio excess max {worst_ratio_excess:.3e} (tol 1e-6), "
                  f"nesting excess {worst_nest:.3e}, centroid drift {worst_centroid:.3e}, "
                  f"containment misses {containment_misses}, over 100 polynomials")
    assert worst_ratio_excess <= 1e-6
    assert worst_nest <= 1e-9
    assert worst_centroid <= 1e-8
    assert containment_misses == 0


def test_criterion_10_sharpness_windows():
    # the symmetric families sit inside their sharpness windows:
    # area in [(1-c)^{4/3} - 0.05, 4(c-c^2)], spread in [sqrt(1-c) - 0.05, 2 sqrt(c-c^2)]
    failures = []
    for m, c in itertools.product((8, 10, 12), (0.5, 2.0 / 3.0)):
        area = sharpness_experiment(m, c)
        lo, hi = (1.0 - c) ** (4.0 / 3.0) - 0.05, 4.0 * (c - c * c)
        if not lo <= area <= hi:
            failures.append(f"area m={m} c={c:.3f}: {area:.4f} outside [{lo:.4f}, {hi:.4f}]")
        p = RealRootedPoly((-1.0,) * m + (1.0,) * m)
        spread = rr_spread_report(p, c).value
        lo_s, hi_s = math.sqrt(1.0 - c) - 0.05, 2.0 * math.sqrt(c - c * c)
        if not lo_s <= spread <= hi_s:
            failures.append(f"spread m={m} c={c:.3f}: {spread:.4f} outside [{lo_s:.4f}, {hi_s:.4f}]")
    ok = not failures
    record(10, ok, "all 12 sharpness windows hit" if ok else "; ".join(failures))
    assert not failures


def test_criterion_11_majorization_chain():
    # 200 random complex polynomials, degrees 4..15, k <= n-2: the pairwise
    # majorization chain holds at the certificate tolerance
    rng = np.random.default_rng(111)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(4, 16))
        zs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        p = ComplexPoly(tuple(pc.polyfromroots(zs)))
        k = int(rng.integers(1, n - 1))
        if not check_chain(p, k):
            bad += 1
    ok = bad == 0
    record(11, ok, f"majorization chain failures {bad}/200 (tolerance 1e-8 * scale)")
    assert bad == 0


def test_criterion_12_deterministic_verification():
    # the full randomized verification suite, run twice in fresh processes,
    # produces byte-identical reports once timings are stripped
    argv = [sys.executable, "-m", "subforge", "verify", "--suite", "all", "--seed", "7"]
    # the child imports the same subforge as this process
    path = [str(Path(subforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    runs = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("timings")
        runs.append(json.dumps(report, sort_keys=True))
    ok = runs[0] == runs[1] and json.loads(runs[0])["outputs"]["pass"] is True
    record(12, ok, "verify --suite all --seed 7 reproduced byte-identically, all suites pass")
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["outputs"]["pass"] is True
