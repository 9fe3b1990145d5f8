"""The four benchmark workloads: inputs, the op each input drives, its check.

A workload is a fixed cycle of inputs made from the seed and written to files
in a work directory. Every input carries one op (the timed call into subforge)
and one check (untimed, run on the op's output). The check also yields the
record that goes into the workload's output digest: kept indices, removal
traces and bounds rounded to 12 significant digits.

Input sizes and mixes are fixed rather than drawn freely (degrees walk their
range, derivative counts follow a fixed sequence per degree), so a different
seed changes the numbers in the inputs and their order but not the sizes a
cycle holds. That keeps the spread between seeds close to the host's own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from subforge import barrier, cli, realroot

# Bound before any tracing patches numpy.linalg, so the checks' own
# eigensolves are never counted as the program's.
_EIGVALSH = np.linalg.eigvalsh

SELECT_N = 40
MAXROOT_N = 12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Outcome:
    ok: bool
    record: tuple = ()
    removed: int = 0
    detail: str = ""


def sig12(x: float) -> str:
    return f"{float(x):.12g}"


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _write_matrix(path: Path, a: np.ndarray) -> None:
    _write_json(path, {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()})


# ---------------------------------------------------------------- CLI ops

_CLI_PROBE = """\
import contextlib, io, sys, time
sys.path.insert(0, {src!r})
import subforge
from subforge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(time.monotonic(), code)
"""


class CliOp:
    """One `subforge` command run in-process through `cli.main(argv)`."""

    def __init__(self, argv: list[str], check):
        self.argv = argv
        self._check = check

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, raw) -> Outcome:
        code, out, err = raw
        if code != 0:
            return Outcome(False, detail=f"exit code {code}: {err.strip()[:300]}")
        try:
            outputs = json.loads(out)["outputs"]
        except (ValueError, KeyError) as exc:
            return Outcome(False, detail=f"unparseable report: {exc!r}")
        return self._check(outputs)

    def probe(self, src: Path) -> str:
        return _CLI_PROBE.format(src=str(src), argv=self.argv)


def _select_check(a: np.ndarray, mode: str):
    """Certificate check: partition, recomputed achieved value, claimed inequality."""
    n = a.shape[0]
    slack = 1e-9 * max(float(np.max(np.abs(_EIGVALSH(a)))), 1e-300)

    def check(outputs) -> Outcome:
        cert = outputs["certificate"]
        kept, trace = list(cert["kept_indices"]), list(cert["removal_trace"])
        if sorted(kept + trace) != list(range(n)):
            return Outcome(False, detail="kept and removal trace do not partition range(n)")
        ev = _EIGVALSH(a[np.ix_(kept, kept)])
        if mode == "invertible":
            achieved = ev[0]
        elif mode == "two-sided":
            achieved = max(-ev[0], ev[-1])
        else:
            achieved = ev[-1]
        bound = float(cert["certified_bound"])
        if abs(achieved - float(cert["achieved_extreme"])) > slack:
            return Outcome(False, detail=f"reported achieved {cert['achieved_extreme']} "
                                         f"but the kept block gives {achieved}")
        holds = achieved >= bound - slack if mode == "invertible" else achieved <= bound + slack
        if not holds:
            return Outcome(False, detail=f"{mode}: achieved {achieved} violates bound {bound}")
        return Outcome(True, (tuple(kept), tuple(trace), sig12(bound)), removed=len(trace))

    return check


def _gauss_lucas_check(degree: int, check: str, csv_path: Path | None):
    def run_check(outputs) -> Outcome:
        if outputs.get("verdict") != "within_bound":
            return Outcome(False, detail=f"verdict {outputs.get('verdict')!r}")
        if outputs["n"] != degree:
            return Outcome(False, detail=f"degree {outputs['n']}, expected {degree}")
        value = outputs["ratio"] if check == "area" else outputs["max_modulus"]
        if not value <= outputs["bound_realized"] + 1e-6:
            return Outcome(False, detail=f"{check} value {value} above {outputs['bound_realized']}")
        k = outputs["k"]
        if csv_path is not None:
            with open(csv_path, newline="", encoding="utf-8") as fh:
                kinds = [row[0] for row in csv.reader(fh)][1:]
            if kinds.count("root_before") != degree or kinds.count("root_after") != degree - k:
                return Outcome(False, detail="CSV root rows do not match the degree")
        return Outcome(True, (check, degree, k, sig12(value), sig12(outputs["bound"])))

    return run_check


# ---------------------------------------------------------------- library op

_BOUNDS_PROBE = """\
import json, sys, time
sys.path.insert(0, {src!r})
import subforge
from subforge import barrier, realroot
with open({path!r}, encoding="utf-8") as fh:
    item = json.load(fh)[0]
p = realroot.RealRootedPoly(tuple(item["roots"]))
barrier.optimize_barrier(p, item["k"])
realroot.nth_derivative_roots(p, item["k"])
print(time.monotonic(), 0)
"""


class BoundsOp:
    """`optimize_barrier(p, k)` checked against `nth_derivative_roots(p, k)`."""

    def __init__(self, roots: list[float], k: int, path: Path):
        self.poly = realroot.RealRootedPoly(tuple(roots))
        self.k = k
        self._path = path
        self._scale = max(1.0, max(abs(r) for r in roots))

    def run(self):
        report = barrier.optimize_barrier(self.poly, self.k)
        top = realroot.nth_derivative_roots(self.poly, self.k).roots[-1]
        return report.bound, top

    def check(self, raw) -> Outcome:
        bound, top = raw
        if not (math.isfinite(bound) and bound >= top - 1e-9 * self._scale):
            return Outcome(False, detail=f"bound {bound} below exact max root {top}")
        return Outcome(True, (self.poly.degree, self.k, sig12(bound), sig12(top)))

    def probe(self, src: Path) -> str:
        return _BOUNDS_PROBE.format(src=str(src), path=str(self._path))


# ---------------------------------------------------------------- generators

def _hermitian(rng, n):
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    return (x + x.T) / 2 + 1j * (y - y.T) / 2


def _projection(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = q[:, :r] @ q[:, :r].conj().T
    return (p + p.conj().T) / 2


def _positive_contraction(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = g @ g.conj().T
    b = (b + b.conj().T) / 2
    return b / _EIGVALSH(b)[-1]


def _zero_diagonal_unit(rng, n):
    h = _hermitian(rng, n)
    np.fill_diagonal(h, 0.0)
    return h / np.max(np.abs(_EIGVALSH(h)))


def select_greedy(rng, work: Path):
    """18 inputs at n=40: smax, invertible and two-sided in turn; a third of
    them (every third round) are built from rank-r projections, r taken from
    n/4, n/2, 3n/4, so their spectra are clustered and repeated."""
    n = SELECT_N
    ranks = [n // 4, n // 2, 3 * n // 4]
    ops = []
    for g in range(6):
        clustered = g % 3 == 2
        for mode in ("smax", "invertible", "two-sided"):
            shift = 1 if mode == "invertible" else 0
            r = ranks[(g // 3 + shift) % 3]
            if mode == "two-sided":
                # 2P - I is traceless only at r = n/2
                a = 2 * _projection(rng, n, n // 2) - np.eye(n) if clustered \
                    else _zero_diagonal_unit(rng, n)
                extra = ["--keep-frac", "0.5"]
            elif mode == "invertible":
                a = _projection(rng, n, r) if clustered else _positive_contraction(rng, n)
                extra = ["--delta", "0.5"]
            else:
                a = _projection(rng, n, r) if clustered else _hermitian(rng, n)
                extra = ["--keep-frac", "0.5"]
            path = work / f"select-{len(ops):02d}.json"
            _write_matrix(path, a)
            argv = ["select", "--matrix", str(path), "--mode", mode] + extra
            ops.append(CliOp(argv, _select_check(a, mode)))
    return ops


def select_maxroot(rng, work: Path):
    """16 random Hermitian inputs at n=12, maxroot mode keeping half."""
    ops = []
    for i in range(16):
        a = _hermitian(rng, MAXROOT_N)
        path = work / f"maxroot-{i}.json"
        _write_matrix(path, a)
        argv = ["select", "--matrix", str(path), "--mode", "maxroot", "--keep-frac", "0.5"]
        ops.append(CliOp(argv, _select_check(a, "maxroot")))
    return ops


def derivative_bounds(rng, work: Path):
    """118 real-rooted p, two of each degree 2..60 in random order, roots
    ~ N(0, 2^2) as in acceptance criterion 7. The two k of a degree sit half
    a period apart on a golden-ratio sequence over [0, deg), so k spans its
    range evenly and the (degree, k) pairs, which set most of an op's cost,
    are the same for every seed; the seed draws the roots and the order."""
    pairs = [(deg, int(((deg * GOLDEN + c / 2) % 1.0) * deg))
             for deg in range(2, 61) for c in range(2)]
    order = rng.permutation(len(pairs))
    # start the cycle at a mid-size input: the first op is also the set-up probe
    order = np.roll(order, -int(np.argmax([pairs[i][0] == 31 for i in order])))
    items = []
    for deg, k in (pairs[i] for i in order):
        items.append({"roots": np.sort(rng.normal(0.0, 2.0, deg)).tolist(), "k": k})
    path = work / "bounds.json"
    _write_json(path, items)
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    return [BoundsOp(it["roots"], it["k"], path) for it in items]


def _disc_roots(rng, degree):
    """Uniform points of the unit disc, centred and scaled to max modulus 0.95."""
    r = np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    r = r - r.mean()
    return r * (0.95 / np.max(np.abs(r)))


def gauss_lucas(rng, work: Path):
    """24 polynomials given as roots, one of each even degree 48..94 in random
    order; degrees 48, 52, .., 92 run `--check area --c 0.5 --emit-csv`, and
    50, 54, .., 94 run `--check disc --c 0.75`."""
    degrees = rng.permutation(np.arange(48, 96, 2))
    # start the cycle at a mid-size input: the first op is also the set-up probe
    degrees = np.roll(degrees, -int(np.argmax(degrees == 72)))
    ops = []
    for degree in map(int, degrees):
        path = work / f"poly-{degree}.json"
        _write_json(path, {"roots": [[z.real, z.imag] for z in _disc_roots(rng, degree)]})
        if degree % 4 == 0:
            csv_path = work / f"poly-{degree}.csv"
            argv = ["gauss-lucas", "--poly", str(path), "--check", "area", "--c", "0.5",
                    "--emit-csv", str(csv_path)]
            ops.append(CliOp(argv, _gauss_lucas_check(degree, "area", csv_path)))
        else:
            argv = ["gauss-lucas", "--poly", str(path), "--check", "disc", "--c", "0.75"]
            ops.append(CliOp(argv, _gauss_lucas_check(degree, "disc", None)))
    return ops


WORKLOADS = {
    "select-greedy": select_greedy,
    "select-maxroot": select_maxroot,
    "derivative-bounds": derivative_bounds,
    "gauss-lucas": gauss_lucas,
}
