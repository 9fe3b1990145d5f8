"""File round trips for matrices, polynomials, and certificates."""

import json

import numpy as np
import pytest
from scipy.io import mmwrite

from subforge.errors import FormatError
from subforge.formats import (
    certificate_from_dict,
    certificate_to_dict,
    load_matrix,
    load_poly_complex,
    load_poly_real_rooted,
    write_json,
    write_roots_csv,
)
from subforge.gausslucas import RootSet, hull
from subforge.submatrix import (
    HermitianMatrix,
    RectOperator,
    SelectionMode,
    select_columns,
    select_invertible,
    select_low_norm,
    select_maxroot_greedy,
    select_smax_greedy,
    select_two_sided,
)


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_matrix_json(tmp_path):
    f = write(tmp_path / "m.json", {"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]]})
    m = load_matrix(f)
    assert m.n == 2
    assert np.allclose(m.entries, [[0, 1], [1, 0]])


def test_load_matrix_json_complex(tmp_path):
    f = write(tmp_path / "m.json", {
        "n": 2,
        "re": [[1.0, 0.0], [0.0, 2.0]],
        "im": [[0.0, 0.5], [-0.5, 0.0]],
    })
    m = load_matrix(f)
    assert m.entries[0, 1] == 0.5j
    assert m.entries[1, 0] == -0.5j


def test_load_matrix_market(tmp_path):
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    f = tmp_path / "m.mtx"
    mmwrite(str(f), a)
    m = load_matrix(str(f))
    assert np.allclose(m.entries, a)


def test_load_matrix_errors(tmp_path):
    with pytest.raises(FormatError):
        load_matrix(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_matrix(str(bad))
    with pytest.raises(FormatError):
        load_matrix(write(tmp_path / "k.json", {"re": [[0.0]]}))  # n missing
    with pytest.raises(FormatError):
        load_matrix(write(tmp_path / "s.json", {"n": 2, "re": [[0.0]]}))  # shape
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(FormatError):
        load_matrix(str(arr))


def test_load_poly_complex_forms(tmp_path):
    # (z - 1)(z - i) = z^2 - (1+i) z + i, constant term first
    by_roots = load_poly_complex(write(tmp_path / "r.json", {"roots": [1.0, [0.0, 1.0]]}))
    by_coeffs = load_poly_complex(write(tmp_path / "c.json",
                                        {"coeffs": [[0.0, 1.0], [-1.0, -1.0], 1.0]}))
    assert np.allclose(by_roots.coeffs, by_coeffs.coeffs)
    split = load_poly_complex(write(tmp_path / "s.json", {
        "coeffs_re": [0.0, -1.0, 1.0], "coeffs_im": [1.0, -1.0, 0.0]}))
    assert np.allclose(split.coeffs, by_coeffs.coeffs)


def test_load_poly_complex_errors(tmp_path):
    with pytest.raises(FormatError):
        load_poly_complex(write(tmp_path / "e.json", {"roots": []}))
    with pytest.raises(FormatError):
        load_poly_complex(write(tmp_path / "t.json", {"roots": ["one"]}))
    with pytest.raises(FormatError):
        load_poly_complex(write(tmp_path / "n.json", {"other": 1}))


def test_load_poly_real_rooted(tmp_path):
    p = load_poly_real_rooted(write(tmp_path / "r.json", {"roots": [3.0, 1.0, 2.0]}))
    assert p.roots == (1.0, 2.0, 3.0)
    # coefficient form: (x-1)(x-2) = x^2 - 3x + 2
    q = load_poly_real_rooted(write(tmp_path / "c.json", {"coeffs": [2.0, -3.0, 1.0]}))
    assert q.roots == pytest.approx((1.0, 2.0), abs=1e-9)


def test_load_poly_real_rooted_rejects_complex(tmp_path):
    with pytest.raises(FormatError):
        load_poly_real_rooted(write(tmp_path / "i.json", {"roots": [[0.0, 1.0]]}))
    # x^2 + 1 has no real roots
    with pytest.raises(FormatError):
        load_poly_real_rooted(write(tmp_path / "c.json", {"coeffs": [1.0, 0.0, 1.0]}))


def test_certificate_round_trip():
    cert = select_maxroot_greedy(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 2)
    data = certificate_to_dict(cert)
    assert data["mode"] == "MaxRootGreedy"
    assert data["kept_indices"] == [0, 1]
    assert data["removal_trace"] == [2]
    back = certificate_from_dict(json.loads(json.dumps(data)))
    assert back == cert


def test_certificate_from_dict_errors():
    with pytest.raises(FormatError):
        certificate_from_dict({"kept_indices": [0]})
    with pytest.raises(FormatError):
        certificate_from_dict({
            "kept_indices": [0], "achieved_extreme": 0.0, "certified_bound": 1.0,
            "mode": "NoSuchMode", "phi_used": None, "removal_trace": []})


def _stored(kept, trace):
    return {"kept_indices": kept, "achieved_extreme": -5.0, "certified_bound": 1.0,
            "mode": "MaxRootGreedy", "phi_used": None, "removal_trace": trace}


@pytest.mark.parametrize("kept, trace", [
    ([0], [7, 7, 7]),  # forged: the stored inequality holds, the indices mean nothing
    ([0, 1], [-1]),  # negative index
    ([0, 0], [1]),  # duplicate kept index
    ([0, 1], [2, 2]),  # duplicate removal
    ([0, 1], [1]),  # kept and trace overlap
    ([0, 2], [3]),  # kept and trace leave out index 1
    ([1], []),  # kept alone is not range(1)
])
def test_certificate_from_dict_rejects_non_partitions(kept, trace):
    with pytest.raises(FormatError, match="partition"):
        certificate_from_dict(_stored(kept, trace))


def test_certificate_round_trip_every_selector_mode():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8))
    sym = (x + x.T) / 2
    psd = x @ x.T / np.linalg.eigvalsh(x @ x.T)[-1]
    zero_diag = sym - np.diag(np.diag(sym))
    zero_diag /= np.max(np.abs(np.linalg.eigvalsh(zero_diag)))
    certs = [
        select_maxroot_greedy(HermitianMatrix(sym), 4),
        select_smax_greedy(HermitianMatrix(sym), 4, 3.0),
        select_low_norm(HermitianMatrix(zero_diag), 4),
        select_two_sided(HermitianMatrix(zero_diag), 0.5),
        select_invertible(HermitianMatrix(psd), 0.5),
        select_columns(RectOperator(x[:, :6]), 0.5),
    ]
    assert {c.mode for c in certs} == set(SelectionMode)
    for cert in certs:
        assert certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert)))) == cert


def test_certificate_mode_values():
    # serialized mode strings are stable identifiers
    assert {m.value for m in SelectionMode} == {
        "MaxRootGreedy", "SmaxGreedy", "TwoSided", "Invertibility", "ColumnSelect"}


def test_write_json(tmp_path):
    f = tmp_path / "out.json"
    write_json(str(f), {"b": 1, "a": [1, 2]})
    text = f.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted
    assert json.loads(text) == {"b": 1, "a": [1, 2]}


def test_write_roots_csv(tmp_path):
    before = RootSet((1 + 1j, -1 + 0j, 0 - 1j), 0.0)
    after = RootSet((0.25 + 0.25j,), 0.0)
    f = tmp_path / "roots.csv"
    write_roots_csv(str(f), before, after, hull(before), None)
    lines = f.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "kind,re,im"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds.count("root_before") == 3
    assert kinds.count("root_after") == 1
    assert kinds.count("hull_before") == 3
    assert "hull_after" not in kinds
    row = lines[1].split(",")
    assert complex(float(row[1]), float(row[2])) == 1 + 1j


def test_matrix_round_trip_through_select(tmp_path):
    # a matrix written as JSON loads back into the same certificate
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4))
    a = (x + x.T) / 2
    f = write(tmp_path / "m.json", {"n": 4, "re": a.tolist()})
    cert1 = select_maxroot_greedy(HermitianMatrix(a), 2)
    cert2 = select_maxroot_greedy(load_matrix(f), 2)
    assert cert1 == cert2
