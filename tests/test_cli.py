"""Command-line interface: reports, exit codes, digests, determinism."""

import json
import math

import numpy as np
import pytest

from subforge.cli import main
from subforge.formats import SCHEMA_VERSION, certificate_from_dict
from subforge.config import VERSION


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


def test_gauss_lucas_roots_for_csv_only_when_asked(tmp_path, capsys, monkeypatch):
    # the CLI's own complex_roots calls feed the CSV alone; without
    # --emit-csv they are skipped and the report is the same
    import subforge.cli as cli

    f = poly_file(tmp_path, "p.json", {"roots": [[0.5, 0.1], [-0.4, 0.3], [0.1, -0.6],
                                                 [-0.2, 0.2]]})
    for check in ("area", "disc"):
        argv = ["gauss-lucas", "--poly", f, "--check", check, "--c", "0.5"]
        with_csv = run_report(capsys, argv + ["--emit-csv", str(tmp_path / "r.csv")])
        calls = []
        real = cli.complex_roots
        monkeypatch.setattr(cli, "complex_roots", lambda p: calls.append(p) or real(p))
        plain = run_report(capsys, argv)
        monkeypatch.setattr(cli, "complex_roots", real)
        assert calls == []
        assert plain["outputs"] == with_csv["outputs"]


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
