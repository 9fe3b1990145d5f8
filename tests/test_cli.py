"""Command-line interface: reports, exit codes, digests, determinism."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from subforge.cli import main
from subforge.errors import ConvergenceFailure, OracleFailure
from subforge.formats import SCHEMA_VERSION, certificate_from_dict
from subforge.config import VERSION
from subforge.gausslucas import spread_bound
from subforge.realroot import RealRootedPoly


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_report(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    report = json.loads(out)
    assert report["tool_version"] == VERSION
    assert report["schema_version"] == SCHEMA_VERSION
    assert "total_ms" in report["timings"]
    assert len(report["inputs_digest"]) == 64
    return report


def matrix_file(tmp_path, name, arr):
    arr = np.asarray(arr, dtype=float)
    f = tmp_path / name
    f.write_text(json.dumps({"n": arr.shape[0], "re": arr.tolist()}), encoding="utf-8")
    return str(f)


def poly_file(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload), encoding="utf-8")
    return str(f)


def test_select_maxroot(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.diag([1.0, 2.0, 3.0]))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "maxroot", "--keep", "2"])
    cert = report["outputs"]["certificate"]
    assert report["outputs"]["n"] == 3
    assert cert["kept_indices"] == [0, 1]
    assert cert["achieved_extreme"] == 2.0
    assert cert["certified_bound"] == pytest.approx(2 + 1 / math.sqrt(3), abs=1e-9)


def test_select_smax_auto_phi(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.diag([0.0, 0.0, 1.0, 1.0]))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "smax",
                                 "--keep", "2", "--phi", "auto"])
    cert = report["outputs"]["certificate"]
    assert cert["achieved_extreme"] <= cert["certified_bound"] + 1e-8
    assert cert["phi_used"] > 0


def test_select_smax_extreme_scale(tmp_path, capsys):
    # at this scale the smax Newton slope underflows to zero; the run must
    # still finish with a certificate instead of a traceback
    f = matrix_file(tmp_path, "m.json", np.diag([1e200, 2e200, 3e200]))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "smax",
                                 "--keep", "2", "--phi", "1e-200"])
    cert = report["outputs"]["certificate"]
    assert cert["kept_indices"] == [0, 1]
    assert cert["achieved_extreme"] <= cert["certified_bound"]


def test_select_smax_tiny_scale_prints_no_warning(tmp_path, capsys):
    # smax's Newton slope overflows here: 1/t**2 divides by zero
    f = matrix_file(tmp_path, "m.json", 1e-200 * np.diag([1.0, 2.0, 3.0, 4.0]))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "smax",
                                  "--keep", "2", "--phi", "1e250"])
    assert (rc, err, seen) == (0, "", [])


def test_select_smax_phi_defaults_to_auto(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.diag([0.0, 0.3, 0.5, 1.0, 2.0]))
    argv = ["select", "--matrix", f, "--mode", "smax", "--keep", "2"]
    reports = [run_report(capsys, argv + extra) for extra in ([], ["--phi", "auto"])]
    for r in reports:
        del r["timings"]
    assert reports[0] == reports[1]
    # an out-of-range size is the selector's own error, also in auto mode
    rc, _, err = run(capsys, argv[:-1] + ["9"])
    assert rc == 2
    assert json.loads(err) == {"error": "KOutOfRange", "message": "subset size 9 outside [1, 4]"}


def test_select_maxroot_large_scale_certifies(tmp_path, capsys):
    # certificate slack scales with the input: at 1e9 a ~7e-12 relative gap passes
    x = np.random.default_rng(0).standard_normal((30, 30))
    f = matrix_file(tmp_path, "m.json", 1e9 * (np.eye(30) + 1e-12 * (x + x.T)))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "maxroot", "--keep", "15"])
    assert len(report["outputs"]["certificate"]["kept_indices"]) == 15


def test_select_invertible_writes_out(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.eye(6))
    out = tmp_path / "cert.json"
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "invertible",
                                 "--delta", "0.5", "--out", str(out)])
    stored = json.loads(out.read_text(encoding="utf-8"))
    assert stored == report["outputs"]["certificate"]
    cert = certificate_from_dict(stored)  # re-validates the inequality
    assert cert.certified_bound == pytest.approx(0.5, abs=1e-12)


def test_select_keep_frac(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.diag([1.0, 2.0, 3.0, 4.0]))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "maxroot",
                                 "--keep-frac", "0.5"])
    assert len(report["outputs"]["certificate"]["kept_indices"]) == 2


def test_select_rejects_nan_matrix(tmp_path, capsys):
    # a NaN entry is rejected where the matrix enters the system (exit code 2)
    f = matrix_file(tmp_path, "nan.json", [[float("nan"), 0.0], [0.0, 1.0]])
    assert "NaN" in open(f, encoding="utf-8").read()
    rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "smax", "--keep", "1",
                              "--phi", "1"])
    assert rc == 2 and json.loads(err)["error"] == "NotHermitian"


def test_select_input_errors(tmp_path, capsys):
    f = matrix_file(tmp_path, "m.json", np.diag([1.0, 2.0, 3.0]))
    # --phi outside smax mode
    rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "maxroot",
                              "--keep", "2", "--phi", "3"])
    assert rc == 2 and "phi" in json.loads(err)["message"]
    # no keep size
    rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "maxroot"])
    assert rc == 2
    # missing file
    rc, _, err = run(capsys, ["select", "--matrix", str(tmp_path / "nope.json"),
                              "--mode", "maxroot", "--keep", "2"])
    assert rc == 2 and json.loads(err)["error"] == "FormatError"
    # invertible needs delta
    rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "invertible"])
    assert rc == 2
    # keep out of range surfaces as InputError, not a traceback
    rc, _, err = run(capsys, ["select", "--matrix", f, "--mode", "maxroot", "--keep", "9"])
    assert rc == 2 and json.loads(err)["error"] == "KOutOfRange"


def test_bounds_values(capsys):
    report = run_report(capsys, ["bounds", "--formula", "mrr", "--params", "alpha=0.5,c=0.75"])
    assert report["outputs"]["value"] == pytest.approx(0.9330127018922192, abs=1e-12)
    assert report["outputs"]["optimal_b"] == pytest.approx(1.3660254037844386, abs=1e-12)
    report = run_report(capsys, ["bounds", "--formula", "zd1", "--params", "c=0.75"])
    assert report["outputs"]["value"] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    report = run_report(capsys, ["bounds", "--formula", "kastza",
                                 "--params", "tr_b=0.5,delta=0.5,c=0.25"])
    assert report["outputs"]["value"] == pytest.approx(0.9330127018922193, abs=1e-12)
    report = run_report(capsys, ["bounds", "--formula", "bt",
                                 "--params", "tr_a=0.5,delta=0.5,c=0.25"])
    assert report["outputs"]["value"] == pytest.approx(0.06698729810778066, abs=1e-12)
    report = run_report(capsys, ["bounds", "--formula", "msr",
                                 "--params", "tr_b=0.5,tr_b2=0.3"])
    assert report["outputs"]["value"] == pytest.approx(0.25 / 0.3, abs=1e-12)


def test_bounds_param_validation(capsys):
    rc, _, err = run(capsys, ["bounds", "--formula", "mrr", "--params", "alpha=0.5"])
    assert rc == 2 and "c" in json.loads(err)["message"]
    rc, _, err = run(capsys, ["bounds", "--formula", "zd1", "--params", "c=0.75,x=1"])
    assert rc == 2
    rc, _, err = run(capsys, ["bounds", "--formula", "zd1", "--params", "c=big"])
    assert rc == 2
    rc, _, err = run(capsys, ["bounds", "--formula", "zd1", "--params", "c"])
    assert rc == 2
    # out-of-range value propagates as an input error
    rc, _, err = run(capsys, ["bounds", "--formula", "zd1", "--params", "c=0.2"])
    assert rc == 2 and json.loads(err)["error"] == "CRangeError"


@pytest.mark.parametrize("tr_b2", ["0", "nan"])
def test_bounds_msr_rejects_vanishing_or_nan_square_trace(capsys, tr_b2):
    rc, out, err = run(capsys, ["bounds", "--formula", "msr",
                                "--params", f"tr_b=1e-7,tr_b2={tr_b2}"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_select_invertible_tiny_spectra_never_traceback(tmp_path, capsys):
    # 1e-10 I: no two-point surrogate, the numeric barrier path certifies
    f = matrix_file(tmp_path, "tiny.json", 1e-10 * np.eye(6))
    report = run_report(capsys, ["select", "--matrix", f, "--mode", "invertible",
                                 "--delta", "0.5"])
    cert = report["outputs"]["certificate"]
    assert len(cert["kept_indices"]) == 3
    assert cert["certified_bound"] == pytest.approx(0.5e-10, rel=1e-12)
    # 1e-300 I: tr(A^2) underflows, an input error
    f = matrix_file(tmp_path, "under.json", 1e-300 * np.eye(6))
    rc, out, err = run(capsys, ["select", "--matrix", f, "--mode", "invertible",
                                "--delta", "0.5"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_gauss_lucas_disc(tmp_path, capsys):
    f = poly_file(tmp_path, "p.json", {"coeffs": [0.0] * 8 + [1.0]})  # z^8
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "disc", "--c", "0.5"])
    out = report["outputs"]
    assert out["verdict"] == "within_bound"
    assert out["k"] == 4 and out["n"] == 8
    assert out["max_modulus"] <= 1e-12
    assert out["bound"] == pytest.approx(1.0, abs=1e-12)
    assert out["bound_realized"] == pytest.approx(1.0, abs=1e-12)


def test_gauss_lucas_area_cube_family(tmp_path, capsys):
    # (z^3 - 1)^10 expanded exactly
    coeffs = [0.0] * 31
    for j in range(11):
        coeffs[3 * j] = math.comb(10, j) * (-1.0) ** (10 - j)
    f = poly_file(tmp_path, "p.json", {"coeffs": coeffs})
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "area", "--c", "0.6667"])
    out = report["outputs"]
    assert out["verdict"] == "within_bound"
    assert out["k"] == 21  # ceil(0.6667 * 30)
    assert out["ratio"] <= out["bound"] + 1e-6


def test_gauss_lucas_area_not_applicable(tmp_path, capsys):
    # collinear roots: the initial hull carries no area to compare against
    f = poly_file(tmp_path, "p.json", {"roots": [0.0, 0.1, 0.2, 0.3, 0.4]})
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "area", "--c", "0.5"])
    assert report["outputs"]["verdict"] == "not_applicable"
    assert "reason" in report["outputs"]


def test_gauss_lucas_chain_and_pereira(tmp_path, capsys):
    f = poly_file(tmp_path, "p.json", {"roots": [[0.3, 0.4], [-0.5, 0.1], [0.0, -0.6], [0.2, 0.0]]})
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "chain", "--k", "2"])
    assert report["outputs"]["holds"] is True
    assert report["outputs"]["verdict"] == "within_bound"
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "pereira"])
    assert report["outputs"]["holds"] is True


def test_gauss_lucas_emit_csv(tmp_path, capsys):
    f = poly_file(tmp_path, "p.json", {"roots": [1.0, -1.0, [0.0, 1.0], [0.0, -1.0]]})
    csv_path = tmp_path / "roots.csv"
    run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "area", "--c", "0.5",
                        "--emit-csv", str(csv_path)])
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "kind,re,im"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert "root_before" in kinds and "root_after" in kinds and "hull_before" in kinds


def test_gauss_lucas_emit_csv_full_derivative_order(tmp_path, capsys):
    # ceil(0.9 * 4) = 4 derivatives leave a constant: the CSV has no after-roots
    f = poly_file(tmp_path, "p.json", {"roots": [1.0, -1.0, [0.0, 1.0], [0.0, -1.0]]})
    csv_path = tmp_path / "roots.csv"
    report = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", "area",
                                 "--c", "0.9", "--emit-csv", str(csv_path)])
    assert report["outputs"]["k"] == 4 and report["outputs"]["ratio"] == 0.0
    kinds = [ln.split(",")[0] for ln in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
    assert kinds.count("root_before") == 4
    assert kinds.count("root_after") == 0
    assert "hull_after" not in kinds


_ZERO_MEAN_ROOTS = [[0.5, 0.1], [-0.4, 0.3], [0.1, -0.6], [-0.2, 0.2]]


def test_gauss_lucas_roots_for_csv_only_when_asked(tmp_path, capsys, monkeypatch):
    # area and disc find the roots of p and of its k-th derivative once each,
    # and --emit-csv writes those same root sets: two calls either way, and
    # the report does not depend on the flag
    import subforge.cli as cli
    import subforge.gausslucas as gl

    assert "complex_roots" not in vars(cli)  # every root-find is counted below
    f = poly_file(tmp_path, "p.json", {"roots": _ZERO_MEAN_ROOTS})
    real = gl.complex_roots
    for check in ("area", "disc"):
        argv = ["gauss-lucas", "--poly", f, "--check", check, "--c", "0.5"]
        outputs = []
        for extra in ([], ["--emit-csv", str(tmp_path / "r.csv")]):
            calls = []
            monkeypatch.setattr(gl, "complex_roots", lambda p, calls=calls: calls.append(p) or real(p))
            outputs.append(run_report(capsys, argv + extra)["outputs"])
            monkeypatch.setattr(gl, "complex_roots", real)
            assert len(calls) == 2
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("check, c", [("area", 0.5), ("area", 0.9), ("disc", 0.5),
                                      ("disc", 0.75)])
def test_gauss_lucas_csv_rows_are_the_checks_root_sets(tmp_path, capsys, check, c):
    # rows are repr of complex_roots(p), complex_roots(D^k p) and their hulls;
    # area at c = 0.9 takes all 4 derivatives and has no after-set or after-hull
    from subforge.formats import load_poly_complex
    from subforge.gausslucas import complex_roots, derivative, hull

    f = poly_file(tmp_path, "p.json", {"roots": _ZERO_MEAN_ROOTS})
    csv_path = tmp_path / "roots.csv"
    out = run_report(capsys, ["gauss-lucas", "--poly", f, "--check", check, "--c", str(c),
                              "--emit-csv", str(csv_path)])["outputs"]
    k = math.ceil(c * 4) if check == "area" else math.floor(c * 4)
    assert out["k"] == k
    p = load_poly_complex(f)
    before = complex_roots(p)
    after = complex_roots(derivative(p, k)).points if k < 4 else ()
    groups = [("root_before", before.points), ("root_after", after),
              ("hull_before", hull(before).hull_vertices),
              ("hull_after", hull(after).hull_vertices if after else ())]
    want = [[kind, repr(z.real), repr(z.imag)] for kind, pts in groups for z in pts]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["kind", "re", "im"]] + want


def test_gauss_lucas_argument_errors(tmp_path, capsys):
    f = poly_file(tmp_path, "p.json", {"roots": [1.0, -1.0, [0.0, 1.0], [0.0, -1.0]]})
    rc, _, err = run(capsys, ["gauss-lucas", "--poly", f, "--check", "area"])
    assert rc == 2  # missing --c
    rc, _, err = run(capsys, ["gauss-lucas", "--poly", f, "--check", "area",
                              "--c", "0.5", "--k", "2"])
    assert rc == 2  # --k only applies to chain
    rc, _, err = run(capsys, ["gauss-lucas", "--poly", f, "--check", "chain", "--k", "2",
                              "--emit-csv", str(tmp_path / "x.csv")])
    assert rc == 2  # csv needs a geometric check
    rc, _, err = run(capsys, ["gauss-lucas", "--poly", f, "--check", "chain"])
    assert rc == 2  # chain needs --k or --c


_REAL_ROOTS = [-1.0, -0.3, 0.2, 0.5, 1.1]


@pytest.mark.parametrize("c", [0.5, 0.75, 0.97])
def test_gauss_lucas_spread_report_and_csv(tmp_path, capsys, monkeypatch, c):
    # one derivative chain per run, with or without --emit-csv; the CSV rows
    # are repr of the input roots and of that chain's roots, with no hull rows
    # (the sets are real); at c = 0.97 one root is left and the ratio is 0
    import subforge.cli as cli
    import subforge.gausslucas as gl

    f = poly_file(tmp_path, "p.json", {"roots": _REAL_ROOTS})
    csv_path = tmp_path / "roots.csv"
    real = gl.nth_derivative_roots
    argv = ["gauss-lucas", "--poly", f, "--check", "spread", "--c", str(c)]
    outputs = []
    for extra in ([], ["--emit-csv", str(csv_path)]):
        calls = []

        def spy(p, k, calls=calls):
            calls.append(k)
            return real(p, k)

        # cli's own binding (the verify suites use it) is counted as well
        monkeypatch.setattr(gl, "nth_derivative_roots", spy)
        monkeypatch.setattr(cli, "nth_derivative_roots", spy)
        outputs.append(run_report(capsys, argv + extra)["outputs"])
        assert len(calls) == 1
    assert outputs[0] == outputs[1]

    k = math.floor(c * 5)
    q = real(RealRootedPoly(tuple(_REAL_ROOTS)), k)
    assert outputs[0] == {"check": "spread", "n": 5, "k": k,
                          "ratio": (q.roots[-1] - q.roots[0]) / (1.1 - -1.0),
                          "bound": spread_bound(c), "bound_realized": spread_bound(k / 5),
                          "verdict": "within_bound"}
    assert len(q.roots) == 5 - k
    if c == 0.97:
        assert outputs[0]["ratio"] == 0.0
    want = [["root_before", repr(x), "0.0"] for x in _REAL_ROOTS]
    want += [["root_after", repr(x), "0.0"] for x in q.roots]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["kind", "re", "im"]] + want


def _disc_roots(radius, n, seed=3):
    rng = np.random.default_rng(seed)
    roots = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return [[z.real, z.imag] for z in roots]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("payload, check", [
    # z^20 + 1e100 z^5: Aberth stalls for all 500 sweeps
    ({"coeffs": [0.0] * 5 + [1e100] + [0.0] * 14 + [1.0]}, "area"),
    # roots of modulus up to 100 at degree 100: p overflows, every residual is NaN
    ({"roots": _disc_roots(100.0, 100)}, "area"),
    ({"roots": _disc_roots(100.0, 100)}, "disc"),
])
def test_gauss_lucas_solver_failure_exits_4(tmp_path, capsys, payload, check):
    f = poly_file(tmp_path, "p.json", payload)
    rc, out, err = run(capsys, ["gauss-lucas", "--poly", f, "--check", check, "--c", "0.5"])
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "RootConvergenceFailure"


@pytest.mark.parametrize("exc", [ConvergenceFailure, OracleFailure])
def test_solver_errors_exit_4(tmp_path, capsys, monkeypatch, exc):
    import subforge.cli as cli

    def fail(*_args):
        raise exc("did not converge")

    monkeypatch.setattr(cli, "select_maxroot_greedy", fail)
    f = matrix_file(tmp_path, "m.json", np.diag([1.0, 2.0, 3.0]))
    rc, out, err = run(capsys, ["select", "--matrix", f, "--mode", "maxroot", "--keep", "2"])
    assert (rc, out) == (4, "")
    assert json.loads(err) == {"error": exc.__name__, "message": "did not converge"}


def test_verify_single_suite(capsys):
    report = run_report(capsys, ["verify", "--suite", "thompson", "--seed", "3",
                                 "--trials", "5"])
    out = report["outputs"]
    assert out["pass"] is True
    assert set(out["suites"]) == {"thompson"}
    assert out["suites"]["thompson"]["trials"] == 5


def test_verify_deterministic_in_process(capsys):
    argv = ["verify", "--suite", "all", "--seed", "7", "--trials", "5"]
    r1 = run_report(capsys, argv)
    r2 = run_report(capsys, argv)
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert set(r1["outputs"]["suites"]) == {"thompson", "interlace", "existence", "appendix"}


def test_verify_seed_changes_stream(capsys):
    r1 = run_report(capsys, ["verify", "--suite", "interlace", "--seed", "1", "--trials", "4"])
    r2 = run_report(capsys, ["verify", "--suite", "interlace", "--seed", "2", "--trials", "4"])
    assert r1["outputs"]["suites"] != r2["outputs"]["suites"]


def test_verify_rejects_bad_arguments(capsys):
    rc, _, err = run(capsys, ["verify", "--suite", "thompson", "--trials", "0"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_digest_tracks_inputs(tmp_path, capsys):
    f1 = matrix_file(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]))
    f2 = matrix_file(tmp_path, "b.json", np.diag([1.0, 2.0, 4.0]))
    r1 = run_report(capsys, ["select", "--matrix", f1, "--mode", "maxroot", "--keep", "2"])
    r1b = run_report(capsys, ["select", "--matrix", f1, "--mode", "maxroot", "--keep", "2"])
    r2 = run_report(capsys, ["select", "--matrix", f2, "--mode", "maxroot", "--keep", "2"])
    assert r1["inputs_digest"] == r1b["inputs_digest"]
    assert r1["inputs_digest"] != r2["inputs_digest"]
