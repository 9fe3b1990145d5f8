"""Command line front end.

Four subcommands: `select` runs a greedy submatrix selector and emits its
certificate, `bounds` evaluates the closed-form bound formulas, `gauss-lucas`
measures hull contraction of polynomial root sets, and `verify` replays the
randomized soundness suites with a fixed seed.

Every run prints one JSON report to stdout with a sha256 digest of the
inputs; reports are byte-identical across repeat runs except for the
timings block.  Exit codes: 0 success, 2 invalid input, 3 violated bound
or failed check, 4 a numerical solver did not converge.  A run that raises
prints one JSON error object to stderr instead of the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import barrier, formats
from .config import VERSION
from .errors import BoundViolation, DegenerateHull, InputError, SubforgeError
from .gausslucas import (
    check_chain,
    check_pereira,
    disc_report,
    gl_area_report,
    hull,
    rr_spread_report,
)
from .realroot import RealRootedPoly, derivative_roots, nth_derivative_roots, smax
from .submatrix import (
    HermitianMatrix,
    charpoly_as_roots,
    select_invertible,
    select_maxroot_greedy,
    select_smax_greedy,
    select_two_sided,
)
from .oracle import brute_force_best_subset, thompson_residual


def _digest(params: dict, file_paths) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(params, sort_keys=True).encode("utf-8"))
    for path in file_paths:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


# ---------------------------------------------------------------- select

def _resolve_keep(args, n: int) -> int:
    if args.keep is not None:
        return args.keep
    _require(args.keep_frac is not None, "need --keep or --keep-frac")
    _require(0.0 < args.keep_frac < 1.0, f"--keep-frac {args.keep_frac} outside (0, 1)")
    return math.floor(args.keep_frac * n)


def _cmd_select(args):
    _require(args.mode == "smax" or args.phi is None, "--phi applies only to smax mode")
    m = formats.load_matrix(args.matrix)
    n = m.n
    phi_arg = args.phi
    if args.mode == "invertible":
        _require(args.keep is None and args.keep_frac is None,
                 "invertible mode sizes the selection via --delta")
        _require(args.delta is not None, "--delta is required for invertible mode")
        cert = select_invertible(m, args.delta)
    elif args.mode == "two-sided":
        _require(args.delta is None, "--delta applies only to invertible mode")
        if args.keep is not None:
            c = args.keep / n
        else:
            _require(args.keep_frac is not None, "need --keep or --keep-frac")
            c = args.keep_frac
        cert = select_two_sided(m, c)
    else:
        _require(args.delta is None, "--delta applies only to invertible mode")
        k = _resolve_keep(args, n)
        if args.mode == "maxroot":
            cert = select_maxroot_greedy(m, k)
        else:
            phi_arg = "auto" if phi_arg is None else phi_arg
            try:
                phi = None if phi_arg == "auto" else float(phi_arg)
            except ValueError as exc:
                raise InputError(f"--phi must be a number or 'auto', got {phi_arg!r}") from exc
            cert = select_smax_greedy(m, k, phi)

    payload = formats.certificate_to_dict(cert)
    if args.out:
        formats.write_json(args.out, payload)
    params = {"mode": args.mode, "keep": args.keep, "keep_frac": args.keep_frac,
              "phi": phi_arg, "delta": args.delta}
    outputs = {"n": n, "certificate": payload}
    return outputs, [args.matrix], params, 0


# ---------------------------------------------------------------- bounds

# name -> (formula, its parameter names); each is called with keywords
_FORMULAS = {
    "mrr": (barrier.mrr_bound, ("alpha", "c")),
    "zd1": (barrier.zd1_bound, ("c",)),
    "zd3": (barrier.zd3_bound, ("alpha", "c")),
    "kastza": (barrier.kastza_bound, ("tr_b", "delta", "c")),
    "bt": (barrier.bt_bound, ("tr_a", "delta", "c")),
    "msr": (barrier.modified_stable_rank, ("tr_b", "tr_b2")),
}


def _parse_params(raw: str) -> dict:
    out = {}
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, val = piece.partition("=")
        _require(bool(sep), f"malformed parameter {piece!r}, expected key=value")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise InputError(f"parameter {key.strip()!r} has non-numeric value {val!r}") from exc
    return out


def _cmd_bounds(args):
    formula = args.formula
    params = _parse_params(args.params)
    fn, wanted = _FORMULAS[formula]
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    _require(not missing, f"{formula} needs parameters {', '.join(missing)}")
    _require(not extra, f"{formula} does not take {', '.join(extra)}")

    outputs = {"formula": formula, "params": params, "value": fn(**params)}
    if formula == "mrr" and params["c"] < 1.0:
        outputs["optimal_b"] = barrier.mrr_optimal_barrier(params["alpha"], params["c"])
    return outputs, [], {"formula": formula, "params": params}, 0


# ---------------------------------------------------------------- gauss-lucas

def _cmd_gauss_lucas(args):
    check = args.check
    c = args.c
    if check in ("area", "spread", "disc"):
        _require(c is not None, f"--c is required for {check}")
        _require(args.k is None, "--k applies only to chain")
    code = 0
    csv_parts = None
    try:
        if check in ("area", "spread", "disc"):
            if check == "spread":
                p = formats.load_poly_real_rooted(args.poly)
                r = rr_spread_report(p, c)
            else:
                p = formats.load_poly_complex(args.poly)
                r = gl_area_report(p, c) if check == "area" else disc_report(p, c)
            outputs = {"check": check, "n": p.degree, "k": r.k,
                       "max_modulus" if check == "disc" else "ratio": r.value,
                       "bound": r.bound, "bound_realized": r.bound_realized,
                       "verdict": "within_bound"}
            if args.emit_csv:
                csv_parts = (r.before, r.after, *(r.hulls or (hull(r.before), hull(r.after))))
        else:
            p = formats.load_poly_complex(args.poly)
            outputs = {"check": check, "n": p.degree}
            if check == "chain":
                _require(args.k is not None or c is not None, "chain needs --k or --c")
                outputs["k"] = k = args.k if args.k is not None else math.floor(c * p.degree)
                holds = check_chain(p, k)
            else:
                holds = check_pereira(p)
            outputs.update(holds=holds, verdict="within_bound" if holds else "violated")
            code = 0 if holds else 3
    except DegenerateHull as exc:
        outputs = {"check": check, "verdict": "not_applicable", "reason": str(exc)}

    if args.emit_csv:
        _require(check in ("area", "spread", "disc"),
                 "--emit-csv supports area, spread, and disc")
        if csv_parts is not None:
            formats.write_roots_csv(args.emit_csv, *csv_parts)

    params = {"check": check, "c": c, "k": args.k}
    return outputs, [args.poly], params, code


# ---------------------------------------------------------------- verify

def _rand_herm(rng: np.random.Generator, n: int) -> HermitianMatrix:
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    return HermitianMatrix((x + x.T) / 2 + 1j * (y - y.T) / 2)


def _suite_thompson(rng: np.random.Generator, trials: int) -> dict:
    residuals = []
    for _ in range(trials):
        n = int(rng.integers(3, 13))
        residuals.append(thompson_residual(_rand_herm(rng, n)))
    worst = max(residuals)
    return {"trials": trials, "residuals": residuals, "max_residual": worst,
            "tolerance": 1e-8, "pass": worst <= 1e-8}


def _suite_interlace(rng: np.random.Generator, trials: int) -> dict:
    margins = []
    for _ in range(trials):
        deg = int(rng.integers(3, 16))
        p = RealRootedPoly(tuple(np.sort(rng.uniform(-3.0, 3.0, deg))))
        q = derivative_roots(p)
        inter = min(
            min(q.roots[i] - p.roots[i], p.roots[i + 1] - q.roots[i])
            for i in range(deg - 1)
        )
        phi = float(rng.uniform(0.5, 5.0))
        shift = (smax(p, phi) - 1.0 / phi) - smax(q, phi)
        margins.append(min(inter, shift))
    worst = min(margins)
    return {"trials": trials, "margins": margins, "min_margin": worst,
            "tolerance": -1e-8, "pass": worst >= -1e-8}


def _suite_existence(rng: np.random.Generator, trials: int) -> dict:
    margins = []
    for _ in range(trials):
        a = _rand_herm(rng, 8)
        _, achieved = brute_force_best_subset(a.entries, 4)
        bound = nth_derivative_roots(charpoly_as_roots(a), 4).roots[-1]
        margins.append(bound - achieved)
    worst = min(margins)
    return {"trials": trials, "margins": margins, "min_margin": worst,
            "tolerance": -1e-8, "pass": worst >= -1e-8}


def _suite_appendix(rng: np.random.Generator, trials: int) -> dict:
    deviations = []
    for _ in range(trials):
        # norm-bound identity at the matched compression rate
        trb = float(rng.uniform(0.05, 0.95))
        trb2 = float(rng.uniform(trb * trb, trb))
        delta = float(rng.uniform(0.05, 1.0))
        c = delta * trb * trb / trb2
        lhs = barrier.kastza_bound(trb, delta, c)
        rhs = barrier.shifted_min_bound((delta - c) / delta, 1.0 - c,
                                        1.0 - delta * trb / c)
        dev = abs(lhs - rhs)
        # closed-form two-point optimum vs the numeric barrier sweep
        n = 20
        na = int(rng.integers(1, n))
        k = int(rng.integers(na, n))
        p = RealRootedPoly((0.0,) * (n - na) + (1.0,) * na)
        numeric = barrier.optimize_barrier(p, k).bound
        closed = barrier.mrr_bound(na / n, k / n)
        dev = max(dev, closed - numeric - 1e-9, numeric - closed - 1e-6, 0.0)
        deviations.append(dev)
    worst = max(deviations)
    return {"trials": trials, "deviations": deviations, "max_deviation": worst,
            "tolerance": 1e-10, "pass": worst <= 1e-10}


_SUITES = {
    "thompson": _suite_thompson,
    "interlace": _suite_interlace,
    "existence": _suite_existence,
    "appendix": _suite_appendix,
}


def _cmd_verify(args):
    _require(args.trials >= 1, "--trials must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    children = np.random.SeedSequence(args.seed).spawn(len(_SUITES))
    streams = dict(zip(_SUITES, children))
    results = {}
    for name in names:
        results[name] = _SUITES[name](np.random.default_rng(streams[name]), args.trials)
    all_pass = all(r["pass"] for r in results.values())
    outputs = {"seed": args.seed, "trials": args.trials, "suites": results,
               "pass": all_pass}
    params = {"suite": args.suite, "seed": args.seed, "trials": args.trials}
    return outputs, [], params, 0 if all_pass else 3


# ---------------------------------------------------------------- wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subforge",
        description="Submatrix selection certificates and root-hull contraction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="run a greedy selector and emit its certificate")
    ps.add_argument("--matrix", required=True, help="matrix file (.json or .mtx)")
    ps.add_argument("--keep", type=int, default=None, help="number of indices to keep")
    ps.add_argument("--keep-frac", type=float, default=None,
                    help="fraction of indices to keep")
    ps.add_argument("--mode", required=True,
                    choices=["maxroot", "smax", "two-sided", "invertible"])
    ps.add_argument("--phi", default=None,
                    help="barrier potential for smax mode, a number or 'auto'")
    ps.add_argument("--delta", type=float, default=None,
                    help="relative trace threshold for invertible mode")
    ps.add_argument("--out", default=None, help="write the certificate JSON here")
    ps.set_defaults(func=_cmd_select)

    pb = sub.add_parser("bounds", help="evaluate a closed-form bound")
    pb.add_argument("--formula", required=True, choices=sorted(_FORMULAS))
    pb.add_argument("--params", required=True,
                    help="comma-separated key=value pairs, e.g. alpha=0.5,c=0.75")
    pb.set_defaults(func=_cmd_bounds)

    pg = sub.add_parser("gauss-lucas", help="root-hull contraction measurements")
    pg.add_argument("--poly", required=True, help="polynomial JSON file")
    pg.add_argument("--c", type=float, default=None, help="derivative fraction")
    pg.add_argument("--check", required=True,
                    choices=["area", "spread", "disc", "chain", "pereira"])
    pg.add_argument("--k", type=int, default=None,
                    help="explicit derivative count for chain")
    pg.add_argument("--emit-csv", default=None,
                    help="write roots and hull vertices as CSV here")
    pg.set_defaults(func=_cmd_gauss_lucas)

    pv = sub.add_parser("verify", help="replay the randomized soundness suites")
    pv.add_argument("--suite", required=True,
                    choices=["thompson", "interlace", "existence", "appendix", "all"])
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=25)
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        outputs, files, params, code = args.func(args)
        digest = _digest({"command": args.command, **params}, files)
    except SubforgeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        # any other package error is a solver that did not converge
        return 2 if isinstance(exc, InputError) else 3 if isinstance(exc, BoundViolation) else 4
    report = {
        "command": args.command,
        "inputs_digest": digest,
        "tool_version": VERSION,
        "schema_version": formats.SCHEMA_VERSION,
        "outputs": outputs,
        "timings": {"total_ms": (time.perf_counter() - t0) * 1000.0},
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
