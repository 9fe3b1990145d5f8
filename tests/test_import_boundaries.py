"""Import boundaries, read from the source with `ast`.

- The coefficient reference (tests/reference.py) is independent of the code
  it checks: it imports nothing from realroot, submatrix, barrier or
  gausslucas, directly or through the package root.
- `subforge.oracle` imports `submatrix` for annotations only.
- Nothing under src/ imports test code.
"""

import ast
import importlib
from pathlib import Path

import pytest

import subforge

TESTS = Path(__file__).resolve().parent
SRC = Path(subforge.__file__).resolve().parent
CHECKED = ("subforge.realroot", "subforge.submatrix", "subforge.barrier", "subforge.gausslucas")
TEST_MODULES = {"tests"} | {p.stem for p in TESTS.glob("*.py")}


def _is_type_checking(node: ast.If) -> bool:
    t = node.test
    return (isinstance(t, ast.Name) and t.id == "TYPE_CHECKING") or (
        isinstance(t, ast.Attribute) and t.attr == "TYPE_CHECKING")


def _imports(source: str, package: str | None = None):
    """Dotted modules a source imports at run time, skipping `if TYPE_CHECKING:`
    blocks.  `from m import name` yields m and, where name is an attribute
    re-exported by m, the module that defines it."""
    found = []

    def visit(node):
        if isinstance(node, ast.If) and _is_type_checking(node):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            found.append(base)
            for alias in node.names:
                found.append(f"{base}.{alias.name}")
                if base.split(".")[0] == "subforge":
                    attr = getattr(importlib.import_module(base), alias.name, None)
                    found.append(getattr(attr, "__module__", None) or "")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _hits(modules, banned) -> list[str]:
    return [m for m in modules if any(m == b or m.startswith(b + ".") for b in banned)]


def test_reference_is_independent_of_the_engine():
    assert _hits(_imports((TESTS / "reference.py").read_text()), CHECKED) == []


def test_oracle_imports_submatrix_for_annotations_only():
    modules = _imports((SRC / "oracle.py").read_text(), "subforge")
    assert _hits(modules, ("subforge.submatrix",)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_tests(path):
    modules = _imports(path.read_text(), "subforge")
    assert [m for m in modules if m.split(".")[0] in TEST_MODULES] == []


@pytest.mark.parametrize("source, banned", [
    ("from subforge.realroot import derivative_roots", CHECKED),
    ("import subforge.gausslucas as gl", CHECKED),
    ("from subforge import nth_derivative_roots", CHECKED),
    ("from subforge import barrier", CHECKED),
    ("def f():\n    from .submatrix import HermitianMatrix", ("subforge.submatrix",)),
    ("if TYPE_CHECKING:\n    pass\nelse:\n    from . import submatrix", ("subforge.submatrix",)),
])
def test_boundary_check_sees_each_import_form(source, banned):
    assert _hits(_imports(source, "subforge"), banned)
