"""File formats: matrices, polynomials, certificates, and CSV root dumps.

Matrices arrive either as JSON ({"n": ..., "re": [[...]], "im": [[...]]},
the imaginary block optional) or as Matrix Market .mtx files.  Polynomials
are JSON with one of three shapes: {"roots": [...]} (numbers or [re, im]
pairs), {"coeffs": [...]} (real, constant term first), or parallel
{"coeffs_re": [...], "coeffs_im": [...]}.  Anything malformed raises
FormatError, which callers surface as an input failure.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import FormatError
from .gausslucas import ComplexPoly, HullReport, RootSet, complex_roots
from .realroot import RealRootedPoly
from .submatrix import HermitianMatrix, SelectionCertificate, SelectionMode

SCHEMA_VERSION = 1


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return data


def _as_float_grid(obj, n: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be a numeric 2d array") from exc
    if arr.shape != (n, n):
        raise FormatError(f"{what} has shape {arr.shape}, expected ({n}, {n})")
    return arr


def load_matrix(path) -> HermitianMatrix:
    """Read a Hermitian matrix from .json or Matrix Market."""
    p = Path(path)
    if p.suffix.lower() in (".mtx", ".mm"):
        return _load_matrix_market(p)
    data = _load_json(p)
    if "n" not in data or "re" not in data:
        raise FormatError(f"{p}: matrix JSON needs keys 'n' and 're'")
    try:
        n = int(data["n"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{p}: 'n' must be an integer") from exc
    if n < 1:
        raise FormatError(f"{p}: n must be positive")
    re = _as_float_grid(data["re"], n, f"{p}: 're'")
    if "im" in data:
        im = _as_float_grid(data["im"], n, f"{p}: 'im'")
        return HermitianMatrix(re + 1j * im)
    return HermitianMatrix(re)


def _load_matrix_market(p: Path) -> HermitianMatrix:
    from scipy.io import mmread
    try:
        raw = mmread(p)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot parse Matrix Market file {p}: {exc}") from exc
    arr = np.asarray(raw.todense() if hasattr(raw, "todense") else raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise FormatError(f"{p}: expected a square matrix, got shape {arr.shape}")
    return HermitianMatrix(arr)


def _parse_point(v, what: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(
            isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise FormatError(f"{what}: entries must be numbers or [re, im] pairs")


def _parse_roots(p: Path, data: dict) -> list[complex]:
    pts = data["roots"]
    if not isinstance(pts, list) or not pts:
        raise FormatError(f"{p}: 'roots' must be a nonempty list")
    return [_parse_point(v, f"{p}: roots") for v in pts]


def load_poly_complex(path) -> ComplexPoly:
    """Read a polynomial; roots are expanded to coefficients if given."""
    p = Path(path)
    data = _load_json(p)
    if "roots" in data:
        return ComplexPoly(tuple(np.polynomial.polynomial.polyfromroots(_parse_roots(p, data))))
    if "coeffs" in data:
        cs = data["coeffs"]
        if not isinstance(cs, list) or not cs:
            raise FormatError(f"{p}: 'coeffs' must be a nonempty list")
        return ComplexPoly(tuple(_parse_point(v, f"{p}: coeffs") for v in cs))
    if "coeffs_re" in data and "coeffs_im" in data:
        re, im = data["coeffs_re"], data["coeffs_im"]
        if (not isinstance(re, list) or not isinstance(im, list)
                or len(re) != len(im) or not re):
            raise FormatError(f"{p}: coeffs_re/coeffs_im must be equal-length lists")
        return ComplexPoly(tuple(complex(a, b) for a, b in zip(re, im)))
    raise FormatError(f"{p}: need 'roots', 'coeffs', or 'coeffs_re'/'coeffs_im'")


def load_poly_real_rooted(path) -> RealRootedPoly:
    """Read a polynomial that must have only real roots.

    A coefficient form is accepted; its roots are computed and the imaginary
    parts must be below 1e-8 of the root scale.
    """
    p = Path(path)
    data = _load_json(p)
    if "roots" in data:
        pts = _parse_roots(p, data)
        if any(z.imag != 0 for z in pts):
            raise FormatError(f"{p}: real-rooted input has complex roots")
        return RealRootedPoly(tuple(z.real for z in pts))
    cp = load_poly_complex(p)
    rs = complex_roots(cp)
    scale = max(1.0, max(abs(z) for z in rs.points))
    if max(abs(z.imag) for z in rs.points) > 1e-8 * scale:
        raise FormatError(f"{p}: coefficients do not define a real-rooted polynomial")
    return RealRootedPoly(tuple(z.real for z in rs.points))


def certificate_to_dict(cert: SelectionCertificate) -> dict:
    return {
        "kept_indices": list(cert.kept_indices),
        "achieved_extreme": cert.achieved_extreme,
        "certified_bound": cert.certified_bound,
        "mode": cert.mode.value,
        "phi_used": cert.phi_used,
        "removal_trace": list(cert.removal_trace),
    }


def certificate_from_dict(data: dict) -> SelectionCertificate:
    try:
        cert = SelectionCertificate(
            kept_indices=tuple(int(i) for i in data["kept_indices"]),
            achieved_extreme=float(data["achieved_extreme"]),
            certified_bound=float(data["certified_bound"]),
            mode=SelectionMode(data["mode"]),
            phi_used=None if data.get("phi_used") is None else float(data["phi_used"]),
            removal_trace=tuple(int(s) for s in data.get("removal_trace", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad certificate payload: {exc}") from exc
    if sorted(idx := cert.kept_indices + cert.removal_trace) != list(range(len(idx))):
        raise FormatError(f"bad certificate payload: kept and trace do not partition {idx}")
    return cert


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_roots_csv(path, before: RootSet, after: RootSet,
                    hull_before: HullReport | None = None,
                    hull_after: HullReport | None = None) -> None:
    """Dump root sets and hull vertices as kind,re,im rows."""
    rows = [("kind", "re", "im")]
    for z in before.points:
        rows.append(("root_before", repr(z.real), repr(z.imag)))
    for z in after.points:
        rows.append(("root_after", repr(z.real), repr(z.imag)))
    for label, h in (("hull_before", hull_before), ("hull_after", hull_after)):
        if h is None:
            continue
        for z in h.hull_vertices:
            rows.append((label, repr(z.real), repr(z.imag)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
